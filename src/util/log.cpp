#include "util/log.hpp"

#include <cstdio>
#include <string>

namespace plwg {

namespace {
const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}
}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, std::string_view component,
                   std::string_view msg) {
  std::string line;
  line.reserve(msg.size() + component.size() + 32);
  if (time_source_) {
    const Time t = time_source_();
    line += "[" + std::to_string(t) + "us] ";
  }
  line += level_name(level);
  line += " [";
  line.append(component.data(), component.size());
  line += "] ";
  line.append(msg.data(), msg.size());
  line += "\n";
  std::fputs(line.c_str(), stderr);
}

}  // namespace plwg
