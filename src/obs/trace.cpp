#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "comm/wire.hpp"

namespace fp::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

namespace {

// Chunked SPSC buffers: the owner thread appends events and publishes them
// with a release store of the chunk count; the flusher walks chunks with
// acquire loads and never writes. A full buffer drops (counted) instead of
// growing unboundedly — 1024 chunks x 256 events = 256k spans per thread,
// far above any sane sampled run.
constexpr std::uint32_t kChunkEvents = 256;
constexpr std::size_t kMaxChunksPerThread = 1024;

struct Event {
  const char* name;
  const char* cat;
  const char* arg_name;  ///< nullptr = no arg
  std::int64_t t0_ns;
  std::int64_t t1_ns;
  std::int64_t arg;
};

struct Chunk {
  Event ev[kChunkEvents];
  std::atomic<std::uint32_t> count{0};
  std::atomic<Chunk*> next{nullptr};
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::string name;       ///< guarded by registry_mu()
  Chunk* head = nullptr;  ///< immutable once registered
  // Owner-thread-only append state.
  Chunk* tail = nullptr;
  std::size_t nchunks = 1;
  std::atomic<std::int64_t> dropped{0};
  // Wire-drain watermark (serialize_new_events); guarded by registry_mu().
  Chunk* drain_chunk = nullptr;
  std::uint32_t drain_idx = 0;
};

/// Worker spans merged root-side carry owned strings and an explicit pid.
struct ForeignEvent {
  std::string name, cat, arg_name;
  std::int64_t t0_ns, t1_ns, arg;
  std::uint32_t tid, pid;
};

struct ForeignState {
  std::vector<ForeignEvent> events;
  std::map<std::uint32_t, std::string> process_names;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> thread_names;
};

std::atomic<std::int64_t> g_epoch_ns{0};
std::atomic<std::int64_t> g_sample_n{16};

// Registry and foreign store are heap-leaked: thread buffers must outlive
// any thread (including pool teardown during static destruction).
std::mutex& registry_mu() {
  static std::mutex mu;
  return mu;
}
std::vector<std::unique_ptr<ThreadBuffer>>& registry() {
  static auto* r = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *r;
}
std::mutex& foreign_mu() {
  static std::mutex mu;
  return mu;
}
ForeignState& foreign() {
  static auto* f = new ForeignState();
  return *f;
}

thread_local ThreadBuffer* tls_buf = nullptr;

ThreadBuffer& this_thread_buffer() {
  if (tls_buf) return *tls_buf;
  auto buf = std::make_unique<ThreadBuffer>();
  buf->head = buf->tail = new Chunk();
  buf->drain_chunk = buf->head;
  std::lock_guard<std::mutex> lock(registry_mu());
  buf->tid = static_cast<std::uint32_t>(registry().size());
  buf->name = "thread-" + std::to_string(buf->tid);
  tls_buf = buf.get();
  registry().push_back(std::move(buf));
  return *tls_buf;
}

/// Reads the publishable events of `buf` in order, calling fn(event). Caller
/// holds registry_mu() (for the name; the event walk itself is lock-free).
template <class Fn>
void walk(const ThreadBuffer& buf, Fn&& fn) {
  for (const Chunk* c = buf.head; c != nullptr;
       c = c->next.load(std::memory_order_acquire)) {
    const std::uint32_t n = c->count.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i) fn(c->ev[i]);
    if (n < kChunkEvents) break;  // the tail chunk; nothing published past it
  }
}

}  // namespace

namespace detail {

void emit_span(const char* name, const char* cat, const char* arg_name,
               std::int64_t t0_ns, std::int64_t t1_ns, std::int64_t arg) {
  ThreadBuffer& b = this_thread_buffer();
  Chunk* c = b.tail;
  std::uint32_t n = c->count.load(std::memory_order_relaxed);
  if (n == kChunkEvents) {
    if (b.nchunks >= kMaxChunksPerThread) {
      b.dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto* fresh = new Chunk();
    c->next.store(fresh, std::memory_order_release);
    b.tail = fresh;
    ++b.nchunks;
    c = fresh;
    n = 0;
  }
  c->ev[n] = Event{name, cat, arg_name, t0_ns, t1_ns, arg};
  c->count.store(n + 1, std::memory_order_release);
}

bool kernel_sampled() {
  thread_local std::int64_t calls = 0;
  const std::int64_t n = g_sample_n.load(std::memory_order_relaxed);
  return calls++ % std::max<std::int64_t>(1, n) == 0;
}

}  // namespace detail

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double now_s() { return static_cast<double>(now_ns()) / 1e9; }

void configure(const ObsSettings& settings) {
  g_sample_n.store(std::max<std::int64_t>(1, settings.sample_kernels),
                   std::memory_order_relaxed);
  if (!settings.trace) {
    detail::g_trace_on.store(false, std::memory_order_release);
    return;
  }
  // Fresh epoch: stale spans from earlier runs in this process (benches,
  // test suites) fall before it and are never flushed again.
  g_epoch_ns.store(now_ns(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(foreign_mu());
    foreign().events.clear();
    foreign().process_names.clear();
    foreign().thread_names.clear();
  }
  detail::g_trace_on.store(true, std::memory_order_release);
}

void set_thread_name(const char* name) {
#if defined(__linux__)
  char short_name[16];
  std::snprintf(short_name, sizeof(short_name), "%s", name);
  pthread_setname_np(pthread_self(), short_name);
#endif
  ThreadBuffer& b = this_thread_buffer();
  std::lock_guard<std::mutex> lock(registry_mu());
  b.name = name;
}

std::vector<TraceEvent> trace_snapshot() {
  const std::int64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(registry_mu());
    for (const auto& buf : registry()) {
      walk(*buf, [&](const Event& e) {
        if (e.t0_ns < epoch) return;
        TraceEvent ev;
        ev.name = e.name;
        ev.cat = e.cat;
        if (e.arg_name) ev.arg_name = e.arg_name;
        ev.thread_name = buf->name;
        ev.t0_ns = e.t0_ns;
        ev.t1_ns = e.t1_ns;
        ev.arg = e.arg;
        ev.tid = buf->tid;
        ev.pid = 0;
        out.push_back(std::move(ev));
      });
    }
  }
  std::lock_guard<std::mutex> lock(foreign_mu());
  for (const ForeignEvent& e : foreign().events) {
    TraceEvent ev;
    ev.name = e.name;
    ev.cat = e.cat;
    ev.arg_name = e.arg_name;
    const auto it = foreign().thread_names.find({e.pid, e.tid});
    ev.thread_name = it != foreign().thread_names.end()
                         ? it->second
                         : "thread-" + std::to_string(e.tid);
    ev.t0_ns = e.t0_ns;
    ev.t1_ns = e.t1_ns;
    ev.arg = e.arg;
    ev.tid = e.tid;
    ev.pid = e.pid;
    out.push_back(std::move(ev));
  }
  return out;
}

std::int64_t dropped_events() {
  std::int64_t total = 0;
  std::lock_guard<std::mutex> lock(registry_mu());
  for (const auto& buf : registry())
    total += buf->dropped.load(std::memory_order_relaxed);
  return total;
}

bool write_trace_json(const std::string& path) {
  const std::vector<TraceEvent> events = trace_snapshot();
  const std::int64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);

  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;

  std::map<std::uint32_t, std::string> process_names;
  process_names[0] = "root";
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> thread_names;
  for (const TraceEvent& e : events)
    thread_names[{e.pid, e.tid}] = e.thread_name;
  {
    std::lock_guard<std::mutex> lock(foreign_mu());
    for (const auto& [pid, name] : foreign().process_names)
      process_names[pid] = name;
  }

  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  auto sep = [&] {
    std::fprintf(f, "%s\n  ", first ? "" : ",");
    first = false;
  };
  for (const auto& [pid, name] : process_names) {
    sep();
    std::fprintf(f,
                 "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %u, "
                 "\"tid\": 0, \"args\": {\"name\": \"%s\"}}",
                 pid, json_escape(name).c_str());
  }
  for (const auto& [key, name] : thread_names) {
    sep();
    std::fprintf(f,
                 "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": %u, "
                 "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                 key.first, key.second, json_escape(name).c_str());
  }
  for (const TraceEvent& e : events) {
    // Microseconds relative to the trace epoch; merged worker events can
    // land fractionally before it (clock alignment slack), clamp to 0.
    const double ts =
        std::max(0.0, static_cast<double>(e.t0_ns - epoch) / 1e3);
    const double dur =
        std::max(0.0, static_cast<double>(e.t1_ns - e.t0_ns) / 1e3);
    sep();
    std::fprintf(f,
                 "{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, \"tid\": %u",
                 json_escape(e.name).c_str(), json_escape(e.cat).c_str(), ts,
                 dur, e.pid, e.tid);
    if (!e.arg_name.empty())
      std::fprintf(f, ", \"args\": {\"%s\": %lld}",
                   json_escape(e.arg_name).c_str(),
                   static_cast<long long>(e.arg));
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void serialize_new_events(comm::FrameWriter& out) {
  const std::int64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(registry_mu());

  out.u64(static_cast<std::uint64_t>(now_ns()));
  out.u32(static_cast<std::uint32_t>(registry().size()));
  for (const auto& buf : registry()) {
    out.u32(buf->tid);
    out.str(buf->name);
  }

  // Collect from each buffer's watermark, then advance it: every event ships
  // exactly once even though a worker serves many groups.
  std::vector<std::pair<Event, std::uint32_t>> fresh;  // (event, tid)
  for (const auto& buf : registry()) {
    Chunk* c = buf->drain_chunk;
    std::uint32_t i = buf->drain_idx;
    for (;;) {
      const std::uint32_t n = c->count.load(std::memory_order_acquire);
      for (; i < n; ++i)
        if (c->ev[i].t0_ns >= epoch) fresh.emplace_back(c->ev[i], buf->tid);
      if (n < kChunkEvents) break;
      Chunk* next = c->next.load(std::memory_order_acquire);
      if (!next) break;
      c = next;
      i = 0;
    }
    buf->drain_chunk = c;
    buf->drain_idx = i;
  }

  out.u32(static_cast<std::uint32_t>(fresh.size()));
  for (const auto& [e, tid] : fresh) {
    out.str(e.name);
    out.str(e.cat);
    out.str(e.arg_name ? e.arg_name : "");
    out.i64(e.t0_ns);
    out.i64(e.t1_ns);
    out.i64(e.arg);
    out.u32(tid);
  }
}

void ingest_remote_events(comm::FrameReader& in, std::uint32_t pid,
                          const std::string& process_name) {
  const auto worker_now = static_cast<std::int64_t>(in.u64());
  const std::int64_t delta = now_ns() - worker_now;
  std::lock_guard<std::mutex> lock(foreign_mu());
  foreign().process_names[pid] = process_name;
  const std::uint32_t nthreads = in.u32();
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    const std::uint32_t tid = in.u32();
    foreign().thread_names[{pid, tid}] = in.str();
  }
  const std::uint32_t nevents = in.u32();
  foreign().events.reserve(foreign().events.size() + nevents);
  for (std::uint32_t i = 0; i < nevents; ++i) {
    ForeignEvent e;
    e.name = in.str();
    e.cat = in.str();
    e.arg_name = in.str();
    e.t0_ns = in.i64() + delta;
    e.t1_ns = in.i64() + delta;
    e.arg = in.i64();
    e.tid = in.u32();
    e.pid = pid;
    foreign().events.push_back(std::move(e));
  }
}

}  // namespace fp::obs
