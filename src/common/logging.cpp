#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>

namespace idf {
namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
// Constant-initialized and trivially destructible (libstdc++), so logging
// from static initializers and destructors is safe.
std::mutex g_emit_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }
void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

void LogImpl(LogLevel level, const char* fmt, ...) {
  if (level < GetLogLevel()) return;

  // Format outside the lock; fall back to a heap buffer for long messages.
  char stack_buf[512];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, args);
  va_end(args);
  std::string message;
  if (needed < 0) {
    va_end(args_copy);
    message = "(log formatting error)";
  } else if (static_cast<size_t>(needed) < sizeof(stack_buf)) {
    va_end(args_copy);
    message.assign(stack_buf, static_cast<size_t>(needed));
  } else {
    message.resize(static_cast<size_t>(needed));
    std::vsnprintf(message.data(), message.size() + 1, fmt, args_copy);
    va_end(args_copy);
  }

  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fprintf(stderr, "[idf %s] %s\n", LevelName(level), message.c_str());
}

}  // namespace idf
