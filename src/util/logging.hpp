#pragma once
// Structured leveled logging used across MAGIC. Thread-safe; writes to
// stderr.
//
// Every line carries a UTC timestamp, the level, and an optional component
// tag, in one of two process-wide formats:
//
//   Text:  2026-08-06T12:34:56.789Z [INFO] serve: drained 3 requests
//   Json:  {"ts":"2026-08-06T12:34:56.789Z","level":"info",
//           "component":"serve","msg":"drained 3 requests"}
//
// Usage:
//   MAGIC_LOG_INFO("trained fold " << fold << " loss=" << loss);
//   MAGIC_CLOG(LogLevel::Debug, "trace", "stage=" << s << " ms=" << ms);
//
// Level is a process-wide setting (default Info); benches lower it to Warn
// so that table output stays clean. Format defaults to Text; `magicd
// --log-json` switches to Json for log-pipeline consumers.

#include <sstream>
#include <string>
#include <string_view>

namespace magic::util {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };
enum class LogFormat { Text = 0, Json = 1 };

/// Process-wide minimum level; messages below it are dropped.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Process-wide output format (Text default).
void set_log_format(LogFormat format) noexcept;
LogFormat log_format() noexcept;

/// Renders one log line in `format` without emitting it (exposed so the
/// formatting is unit-testable; `timestamp` is an ISO-8601 UTC string).
std::string render_log_line(LogFormat format, LogLevel level,
                            std::string_view component,
                            std::string_view message,
                            std::string_view timestamp);

/// Current wall-clock time as "YYYY-MM-DDTHH:MM:SS.mmmZ" (UTC).
std::string log_timestamp();

/// Emits one formatted line to stderr under a mutex.
void log_line(LogLevel level, std::string_view component,
              const std::string& message);

}  // namespace magic::util

#define MAGIC_CLOG(level, component, expr)                          \
  do {                                                              \
    if (static_cast<int>(level) >=                                  \
        static_cast<int>(::magic::util::log_level())) {             \
      std::ostringstream magic_log_oss_;                            \
      magic_log_oss_ << expr;                                       \
      ::magic::util::log_line(level, component, magic_log_oss_.str()); \
    }                                                               \
  } while (0)

#define MAGIC_LOG_AT(level, expr) MAGIC_CLOG(level, "", expr)

#define MAGIC_LOG_DEBUG(expr) MAGIC_LOG_AT(::magic::util::LogLevel::Debug, expr)
#define MAGIC_LOG_INFO(expr) MAGIC_LOG_AT(::magic::util::LogLevel::Info, expr)
#define MAGIC_LOG_WARN(expr) MAGIC_LOG_AT(::magic::util::LogLevel::Warn, expr)
#define MAGIC_LOG_ERROR(expr) MAGIC_LOG_AT(::magic::util::LogLevel::Error, expr)
