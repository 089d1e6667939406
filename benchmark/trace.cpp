#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "lhd/util/check.hpp"

namespace lhd::bench {

namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<std::uint32_t> g_next_thread{0};
thread_local std::int32_t t_open = -1;  // innermost open span on this thread
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : spans_(new SpanRecord[capacity]),
      capacity_(capacity),
      epoch_ns_(steady_ns()) {}

std::int32_t Tracer::begin(const char* name, std::uint64_t request) {
  const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  SpanRecord& span = spans_[index];
  span.name = name;
  span.parent = t_open;
  span.thread = t_thread;
  span.request = request;
  span.start_ns = steady_ns() - epoch_ns_;
  t_open = static_cast<std::int32_t>(index);
  return t_open;
}

void Tracer::end(std::int32_t index) {
  if (index < 0) return;
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = steady_ns() - epoch_ns_;
  t_open = span.parent;
}

std::size_t Tracer::size() const {
  return std::min(next_.load(), capacity_);
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  const std::size_t n = size();
  std::vector<std::int64_t> child_ns(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans_[i].parent >= 0) {
      child_ns[static_cast<std::size_t>(spans_[i].parent)] +=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    LayerTime& layer = out[spans_[i].name];
    ++layer.calls;
    layer.self_seconds += static_cast<double>(total - child_ns[i]) * 1e-9;
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  LHD_CHECK_MSG(out.good(), "cannot write trace file " << path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char line[256];
  for (std::size_t i = 0; i < size(); ++i) {
    const SpanRecord& s = spans_[i];
    // Names are fixed layer literals: no escaping needed.
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"cat\":\"lhd\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<unsigned long long>(s.request));
    out << line;
  }
  out << "\n]}\n";
  LHD_CHECK_MSG(out.good(), "short write to trace file " << path);
}

void set_active_tracer(Tracer* tracer) { g_active.store(tracer); }

Span::Span(const char* name, std::uint64_t request)
    : tracer_(g_active.load(std::memory_order_relaxed)) {
  if (tracer_ != nullptr) index_ = tracer_->begin(name, request);
}

Span::~Span() {
  if (tracer_ != nullptr) tracer_->end(index_);
}

}  // namespace lhd::bench
