// Lightweight leveled logging with a pluggable simulated-time source.
//
// The simulator installs a time provider so log lines carry simulated
// microseconds rather than wall-clock time; tests raise the threshold to
// keep output quiet.
#pragma once

#include <functional>
#include <sstream>
#include <string_view>

#include "util/types.hpp"

namespace plwg {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }
  [[nodiscard]] bool enabled(LogLevel level) const { return level >= level_; }

  /// Install a function returning the current simulated time (or nullptr to
  /// drop timestamps).
  void set_time_source(std::function<Time()> source) {
    time_source_ = std::move(source);
  }

  void write(LogLevel level, std::string_view component, std::string_view msg);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  std::function<Time()> time_source_;
};

namespace detail {
template <class... Args>
std::string log_format(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}
}  // namespace detail

}  // namespace plwg

#define PLWG_LOG(level, component, ...)                                   \
  do {                                                                    \
    if (::plwg::Logger::instance().enabled(level)) {                      \
      ::plwg::Logger::instance().write(                                   \
          level, component, ::plwg::detail::log_format(__VA_ARGS__));     \
    }                                                                     \
  } while (0)

#define PLWG_TRACE(component, ...) \
  PLWG_LOG(::plwg::LogLevel::kTrace, component, __VA_ARGS__)
#define PLWG_DEBUG(component, ...) \
  PLWG_LOG(::plwg::LogLevel::kDebug, component, __VA_ARGS__)
#define PLWG_INFO(component, ...) \
  PLWG_LOG(::plwg::LogLevel::kInfo, component, __VA_ARGS__)
#define PLWG_WARN(component, ...) \
  PLWG_LOG(::plwg::LogLevel::kWarn, component, __VA_ARGS__)
#define PLWG_ERROR(component, ...) \
  PLWG_LOG(::plwg::LogLevel::kError, component, __VA_ARGS__)
