// Span tracer (DESIGN.md §11): RAII scopes writing lock-free per-thread
// event buffers, flushed to Chrome trace-event JSON (chrome://tracing /
// Perfetto).
//
// Contract with the hot paths: when tracing is off (the default) a span is a
// single relaxed atomic load and nothing else — no clock read, no buffer
// touch, no allocation — so tracing-off runs stay bit-identical AND
// perf-neutral. When on, each span costs two monotonic clock reads and one
// slot write into this thread's chunked buffer; the flusher never blocks a
// writer (SPSC publication via release/acquire on per-chunk counts).
//
// Span names, categories, and arg names MUST be string literals (the buffer
// stores the pointers). Events from other processes (the distributed trace
// merge, kMsgTrace) carry owned strings and live in a separate foreign store.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fp::comm {
class FrameWriter;
class FrameReader;
}  // namespace fp::comm

namespace fp::obs {

namespace detail {
extern std::atomic<bool> g_trace_on;
void emit_span(const char* name, const char* cat, const char* arg_name,
               std::int64_t t0_ns, std::int64_t t1_ns, std::int64_t arg);
bool kernel_sampled();  ///< true for 1-in-N calls on this thread (tracing on)
}  // namespace detail

/// Monotonic (steady) clock, nanoseconds. The time base of every span.
std::int64_t now_ns();
/// now_ns() in seconds — wall-clock measurement helper.
double now_s();

/// The obs.* spec surface, applied at run start (exp::run_built and
/// net::run_worker call this from the resolved spec).
struct ObsSettings {
  bool trace = false;            ///< collect spans
  std::string trace_path;        ///< "" = derive from FP_BENCH_OUT / run name
  bool metrics = false;          ///< export the counter registry as JSON
  std::int64_t sample_kernels = 16;  ///< trace 1 in N kernel entry calls
};

/// Enables/disables span collection. Enabling records the trace epoch: only
/// events that begin at or after it are flushed, so buffers are reusable
/// across runs in one process without replaying stale spans.
void configure(const ObsSettings& settings);

inline bool tracing_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// Names the calling thread: the trace lane label, and (on Linux) the
/// pthread name TSan reports and `top -H` show. Safe to call with tracing
/// off; truncated to 15 chars for the kernel.
void set_thread_name(const char* name);

/// RAII span. Use the FP_TRACE_SCOPE* macros; name/cat/arg_name must be
/// string literals.
class SpanScope {
 public:
  explicit SpanScope(const char* name, const char* cat,
                     const char* arg_name = nullptr, std::int64_t arg = 0)
      : name_(name), cat_(cat), arg_name_(arg_name), arg_(arg),
        active_(tracing_enabled()) {
    if (active_) t0_ = now_ns();
  }
  ~SpanScope() {
    if (active_) detail::emit_span(name_, cat_, arg_name_, t0_, now_ns(), arg_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  const char* cat_;
  const char* arg_name_;
  std::int64_t arg_;
  std::int64_t t0_ = 0;
  bool active_;
};

/// Sampled span for kernel entry points (category "kernel"): traces 1 in
/// obs.sample_kernels calls per thread, so a GEMM-heavy run yields a
/// readable lane instead of millions of events.
class KernelScope {
 public:
  explicit KernelScope(const char* name, const char* arg_name = nullptr,
                       std::int64_t arg = 0)
      : name_(name), arg_name_(arg_name), arg_(arg),
        active_(tracing_enabled() && detail::kernel_sampled()) {
    if (active_) t0_ = now_ns();
  }
  ~KernelScope() {
    if (active_)
      detail::emit_span(name_, "kernel", arg_name_, t0_, now_ns(), arg_);
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  const char* name_;
  const char* arg_name_;
  std::int64_t arg_;
  std::int64_t t0_ = 0;
  bool active_;
};

#define FP_OBS_CAT2(a, b) a##b
#define FP_OBS_CAT(a, b) FP_OBS_CAT2(a, b)
#define FP_TRACE_SCOPE(name, cat) \
  ::fp::obs::SpanScope FP_OBS_CAT(fp_trace_scope_, __LINE__)((name), (cat))
#define FP_TRACE_SCOPE_ARG(name, cat, arg_name, arg_value)      \
  ::fp::obs::SpanScope FP_OBS_CAT(fp_trace_scope_, __LINE__)(   \
      (name), (cat), (arg_name), static_cast<std::int64_t>(arg_value))
#define FP_TRACE_KERNEL(name, arg_name, arg_value)              \
  ::fp::obs::KernelScope FP_OBS_CAT(fp_trace_kernel_, __LINE__)( \
      (name), (arg_name), static_cast<std::int64_t>(arg_value))

/// One flushed event — what tests inspect and the JSON writer renders.
struct TraceEvent {
  std::string name, cat, arg_name, thread_name;
  std::int64_t t0_ns = 0, t1_ns = 0, arg = 0;
  std::uint32_t tid = 0;
  std::uint32_t pid = 0;  ///< 0 = this process; >0 = merged worker lane
};

/// Every event since the trace epoch (local + ingested foreign), unordered.
std::vector<TraceEvent> trace_snapshot();

/// Events discarded because a thread hit its buffer cap (reported, never
/// blocking).
std::int64_t dropped_events();

/// Writes the Chrome trace-event JSON through exp::JsonWriter, one event per
/// line (creating parent directories). False on I/O failure.
bool write_trace_json(const std::string& path);

// ---- Distributed merge (net kMsgTrace, DESIGN.md §11) -----------------------

/// Worker side: serializes every local event not yet drained (plus the
/// thread-name table and the worker's current now_ns() for clock alignment)
/// and advances the drain watermark. Called once per served group.
void serialize_new_events(comm::FrameWriter& out);

/// Root side: ingests one serialize_new_events frame as process lane `pid`
/// (worker rank + 1), shifting worker timestamps onto the root clock via
/// delta = root now_ns() - shipped worker now_ns().
void ingest_remote_events(comm::FrameReader& in, std::uint32_t pid,
                          const std::string& process_name);

}  // namespace fp::obs
