// Minimal leveled logger. Simulations are chatty; default level is Warn so
// tests, benches and examples stay quiet.
//
// The level can be overridden without recompiling via the DLT_LOG_LEVEL
// environment variable (trace|debug|info|warn|error|off, case-insensitive;
// numeric 0-5 also accepted), read once at startup.
//
// The DLT_LOG_* macros guard on log_enabled() BEFORE evaluating their
// arguments, so a disabled call site costs one branch — no formatting, no
// temporaries like `status.to_string().c_str()` on hot paths.
#pragma once

#include <cstdio>
#include <string>
#include <utility>

namespace dlt {

enum class LogLevel { Trace = 0, Debug, Info, Warn, Error, Off };

LogLevel log_level();
/// True when a message at `level` would be emitted. The macros use this to
/// skip argument evaluation entirely when the level is disabled.
inline bool log_enabled(LogLevel level) { return level >= log_level(); }

namespace detail {
void log_line(LogLevel level, const std::string& msg);

template <typename... Args>
std::string format(const char* fmt, Args&&... args) {
  const int n = std::snprintf(nullptr, 0, fmt, std::forward<Args>(args)...);
  if (n <= 0) return fmt;
  std::string out(static_cast<std::size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, fmt, std::forward<Args>(args)...);
  return out;
}
inline std::string format(const char* fmt) { return fmt; }
}  // namespace detail

template <typename... Args>
void log(LogLevel level, const char* fmt, Args&&... args) {
  if (!log_enabled(level)) return;
  detail::log_line(level, detail::format(fmt, std::forward<Args>(args)...));
}

#define DLT_LOG_AT(level, ...)                          \
  do {                                                  \
    if (::dlt::log_enabled(level))                      \
      ::dlt::log(level, __VA_ARGS__);                   \
  } while (0)

#define DLT_LOG_TRACE(...) DLT_LOG_AT(::dlt::LogLevel::Trace, __VA_ARGS__)
#define DLT_LOG_DEBUG(...) DLT_LOG_AT(::dlt::LogLevel::Debug, __VA_ARGS__)
#define DLT_LOG_INFO(...) DLT_LOG_AT(::dlt::LogLevel::Info, __VA_ARGS__)
#define DLT_LOG_WARN(...) DLT_LOG_AT(::dlt::LogLevel::Warn, __VA_ARGS__)
#define DLT_LOG_ERROR(...) DLT_LOG_AT(::dlt::LogLevel::Error, __VA_ARGS__)

}  // namespace dlt
