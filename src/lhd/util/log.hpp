#pragma once
// Minimal leveled logger. Thread-safe line-at-a-time output to stderr.
//
//   LHD_LOG(Info) << "trained " << n << " epochs";
//
// The global level defaults to Info; set_log_level(Level::Debug) to see more,
// Level::Off to silence (used by tests and micro-benchmarks).

#include <sstream>
#include <string_view>

namespace lhd {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

void set_log_level(LogLevel level);

namespace detail {

class LogLine {
 public:
  LogLine(LogLevel level, std::string_view file, int line);
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine();

  template <typename T>
  LogLine& operator<<(const T& value) {
    if (enabled_) os_ << value;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace lhd

#define LHD_LOG(severity)                                                  \
  ::lhd::detail::LogLine(::lhd::LogLevel::severity, __FILE__, __LINE__)
