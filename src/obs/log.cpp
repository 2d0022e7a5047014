#include "obs/log.hpp"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "obs/trace.hpp"

namespace fp::obs {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};

std::int64_t start_ns() {
  static const std::int64_t t = now_ns();
  return t;
}

}  // namespace

void set_log_level(LogLevel level) {
  start_ns();  // pin the time base no later than configuration
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool parse_log_level(const char* s, LogLevel* out) {
  if (std::strcmp(s, "quiet") == 0) *out = LogLevel::kQuiet;
  else if (std::strcmp(s, "info") == 0) *out = LogLevel::kInfo;
  else if (std::strcmp(s, "debug") == 0) *out = LogLevel::kDebug;
  else return false;
  return true;
}

void logf(LogLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) > g_level.load(std::memory_order_relaxed)) return;
  char msg[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, ap);
  va_end(ap);
  const double t = static_cast<double>(now_ns() - start_ns()) / 1e9;
  // One fprintf per line so concurrent processes/threads interleave whole
  // lines, not fragments.
  std::fprintf(stderr, "[%9.3f] %s: %s\n", t,
               level == LogLevel::kDebug ? "debug" : "info", msg);
}

}  // namespace fp::obs
