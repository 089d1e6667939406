#pragma once
/// @file timer.hpp
/// @brief RAII scoped wall-clock timers feeding obs histograms, with an
/// accumulator mode for contention-free per-thread timing.
///
/// Thread-safety: a `ScopedTimer` instance is used by one thread (it is a
/// stack object). The histogram-targeting constructors record through the
/// thread-safe `Histogram`/`Registry`; the accumulator constructor writes
/// a caller-owned `double`, so a shard can time thousands of scopes with
/// zero synchronization and flush the total to a histogram once.

#include <chrono>
#include <string>

#include "lhd/obs/registry.hpp"

namespace lhd::obs {

/// Times the enclosing scope. Destinations:
///  * `ScopedTimer(hist)` — observe elapsed seconds into a Histogram;
///  * `ScopedTimer("name")` — into Registry::global().histogram("name");
///  * `ScopedTimer(acc)` — add elapsed seconds to a plain double the
///    caller owns (per-thread accumulation; flush the double yourself).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) : hist_(&hist) {}

  explicit ScopedTimer(const std::string& name)
      : hist_(&Registry::global().histogram(name)) {}

  explicit ScopedTimer(double& accumulator) : accum_(&accumulator) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Record now instead of at scope exit; returns elapsed seconds (0.0 if
  /// already stopped). Idempotent.
  double stop() {
    if (!running_) return 0.0;
    running_ = false;
    const double s =
        std::chrono::duration<double>(Clock::now() - start_).count();
    if (hist_ != nullptr) hist_->observe(s);
    if (accum_ != nullptr) *accum_ += s;
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;

  Histogram* hist_ = nullptr;
  double* accum_ = nullptr;
  bool running_ = true;
  // Declared last, so the clock starts after hist_'s registry lookup.
  Clock::time_point start_ = Clock::now();
};

}  // namespace lhd::obs
