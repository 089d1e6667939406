#pragma once
// Span recording for the traced run. Spans are recorded by the benchmark's
// own code around each call into a library layer; nothing inside src/ is
// traced. Each span keeps its name, start, end, the span that was open on
// the same thread when it began (its parent) and a request id. Spans live
// in a buffer allocated up front and are written out once, at exit, as a
// Chrome trace-event file (opens in Perfetto or chrome://tracing).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace lhd::bench {

struct SpanRecord {
  const char* name = nullptr;  ///< static string: a layer name
  std::int64_t start_ns = 0;   ///< since the tracer was created
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    ///< index of the enclosing span, -1 = root
  std::uint32_t thread = 0;    ///< small per-thread number
  std::uint64_t request = 0;   ///< request id (serve workloads), else 0
};

/// Fixed-capacity span buffer. begin() claims a slot with one atomic add
/// and never allocates; spans past the capacity are counted and dropped.
/// Read the buffer (layer_times, write_chrome) only after every recording
/// thread has been joined.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its index, or -1 when
  /// the buffer is full.
  std::int32_t begin(const char* name, std::uint64_t request);
  void end(std::int32_t index);

  std::size_t size() const;
  std::size_t dropped() const { return dropped_.load(); }

  struct LayerTime {
    std::uint64_t calls = 0;
    double self_seconds = 0.0;  ///< duration minus time in child spans
  };
  /// Calls and self time per span name.
  std::map<std::string, LayerTime> layer_times() const;

  /// Writes every span as a Chrome trace-event JSON document.
  void write_chrome(const std::string& path) const;

 private:
  std::unique_ptr<SpanRecord[]> spans_;
  std::size_t capacity_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> dropped_{0};
  std::int64_t epoch_ns_;
};

/// The tracer Span records into; nullptr (the default) makes Span a no-op,
/// so untraced runs pay one relaxed load per span site.
void set_active_tracer(Tracer* tracer);

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_ = -1;
};

}  // namespace lhd::bench
