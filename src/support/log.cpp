#include "support/log.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace dlt {
namespace {

/// Parses DLT_LOG_LEVEL: a level name (case-insensitive) or a numeric
/// value matching the enum. Unset or unparseable → the compiled default.
LogLevel level_from_env(LogLevel fallback) {
  const char* env = std::getenv("DLT_LOG_LEVEL");
  if (!env || !*env) return fallback;
  std::string s;
  for (const char* p = env; *p; ++p)
    s += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  if (s == "trace") return LogLevel::Trace;
  if (s == "debug") return LogLevel::Debug;
  if (s == "info") return LogLevel::Info;
  if (s == "warn" || s == "warning") return LogLevel::Warn;
  if (s == "error") return LogLevel::Error;
  if (s == "off" || s == "none") return LogLevel::Off;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end != env && v >= 0 && v <= static_cast<long>(LogLevel::Off))
    return static_cast<LogLevel>(v);
  return fallback;
}

LogLevel g_level = level_from_env(LogLevel::Warn);

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return g_level; }

namespace detail {
void log_line(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace detail

}  // namespace dlt
