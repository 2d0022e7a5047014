// Leveled, monotonic-timestamped stderr logging (DESIGN.md §11).
//
// Replaces the scattered std::fprintf(stderr, ...) banners in fp_run and
// src/net/: every line carries seconds since process start on the same
// steady clock the tracer uses, so log lines and trace spans correlate.
// kQuiet suppresses info+debug; errors are not routed here (they throw or
// print unconditionally).
#pragma once

namespace fp::obs {

enum class LogLevel : int { kQuiet = 0, kInfo = 1, kDebug = 2 };

void set_log_level(LogLevel level);

/// Parses "quiet"/"info"/"debug"; returns false (level untouched) otherwise.
bool parse_log_level(const char* s, LogLevel* out);

/// printf-style line to stderr as "[   12.345] info: ...". Dropped when
/// `level` is above the configured threshold.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void logf(LogLevel level, const char* fmt, ...);

}  // namespace fp::obs
