#pragma once
/// @file registry.hpp
/// @brief Named monotonic counters and value histograms behind a
/// process-wide (or caller-owned) `Registry`.
///
/// Thread-safety: every operation on `Counter`, `Histogram` and `Registry`
/// is safe to call concurrently. Counters are relaxed atomics (monotonic
/// totals, no ordering guarantees); histograms take a short per-histogram
/// mutex; the registry's name maps are guarded by a mutex but hand out
/// stable references, so hot paths look a counter up once and then update
/// it lock-free. The locking discipline is annotated (LHD_GUARDED_BY) and
/// machine-checked under Clang — see docs/STATIC_ANALYSIS.md.

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "lhd/util/thread_annotations.hpp"

namespace lhd::obs {

/// Monotonic event counter. add() is wait-free (relaxed fetch_add).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Aggregate view of a histogram at one point in time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/// Streaming count/sum/min/max of observed values (typically seconds).
/// observe() takes a short mutex — fine for per-shard / per-epoch / per-run
/// observations; for per-item hot loops accumulate locally and observe the
/// total once (see ScopedTimer's accumulator mode).
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value) noexcept {
    const MutexLock lock(mutex_);
    ++snap_.count;
    snap_.sum += value;
    if (value < snap_.min) snap_.min = value;
    if (value > snap_.max) snap_.max = value;
  }

  HistogramSnapshot snapshot() const {
    const MutexLock lock(mutex_);
    return snap_;
  }

  void reset() {
    const MutexLock lock(mutex_);
    snap_ = HistogramSnapshot{};
  }

 private:
  mutable Mutex mutex_;
  HistogramSnapshot snap_ LHD_GUARDED_BY(mutex_);
};

/// Name -> Counter/Histogram registry. Instruments register lazily on
/// first use; names are conventionally dotted paths ("scan.windows_total",
/// "nn.epoch_seconds"). References returned by counter()/histogram() stay
/// valid for the registry's lifetime (std::map nodes are stable).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in instrument records into.
  static Registry& global();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Convenience recording: look the instrument up (creating it on first
  /// use) and record into it.
  void add(const std::string& name, std::uint64_t delta = 1);
  void observe(const std::string& name, double value);

  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, HistogramSnapshot> histograms() const;

  /// Zero every instrument (names stay registered).
  void reset();

 private:
  mutable Mutex mutex_;
  std::map<std::string, Counter> counters_ LHD_GUARDED_BY(mutex_);
  std::map<std::string, Histogram> histograms_ LHD_GUARDED_BY(mutex_);
};

}  // namespace lhd::obs
