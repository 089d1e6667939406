#include "lhd/util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "lhd/util/thread_annotations.hpp"

namespace lhd {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Info};
// Serializes line writes so concurrent LHD_LOG statements never
// interleave mid-line; the guarded resource is the stderr stream itself.
Mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info:  return "INFO ";
    case LogLevel::Warn:  return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off:   return "OFF  ";
  }
  return "?????";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

namespace detail {

LogLine::LogLine(LogLevel level, std::string_view file, int line)
    : enabled_(level >= g_level.load() && level != LogLevel::Off) {
  if (!enabled_) return;
  // Keep only the basename for brevity.
  const auto slash = file.find_last_of('/');
  if (slash != std::string_view::npos) file.remove_prefix(slash + 1);
  os_ << "[" << level_name(level) << " " << file << ":" << line << "] ";
}

LogLine::~LogLine() {
  if (!enabled_) return;
  os_ << '\n';
  const std::string line = os_.str();
  const MutexLock lock(g_mutex);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace detail
}  // namespace lhd
