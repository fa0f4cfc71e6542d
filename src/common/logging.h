// Leveled logger. Off by default above WARN so benchmarks stay quiet; tests
// flip the level to observe scheduler decisions (recovery, staleness).
//
// Emission is thread-safe: the message is formatted into a local buffer,
// then written as one "[idf LEVEL] msg" line to stderr under one mutex, so
// concurrent tasks cannot interleave partial lines.
#pragma once

#include <cstdarg>

namespace idf {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

/// printf-style logging to stderr with a level prefix.
void LogImpl(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

#define IDF_LOG_DEBUG(...) ::idf::LogImpl(::idf::LogLevel::kDebug, __VA_ARGS__)
#define IDF_LOG_INFO(...) ::idf::LogImpl(::idf::LogLevel::kInfo, __VA_ARGS__)
#define IDF_LOG_WARN(...) ::idf::LogImpl(::idf::LogLevel::kWarn, __VA_ARGS__)
#define IDF_LOG_ERROR(...) ::idf::LogImpl(::idf::LogLevel::kError, __VA_ARGS__)

}  // namespace idf
