#include "obs/metrics.hpp"

#include <map>
#include <memory>
#include <mutex>

#include "exp/json.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fp::obs {

namespace {

std::mutex& counters_mu() {
  static std::mutex mu;
  return mu;
}

// Heap-leaked: counter references handed out must stay valid through static
// destruction of any translation unit.
std::map<std::string, std::unique_ptr<Counter>>& counters() {
  static auto* m = new std::map<std::string, std::unique_ptr<Counter>>();
  return *m;
}

std::int64_t rss_peak_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0)
    return static_cast<std::int64_t>(ru.ru_maxrss);
#endif
  return 0;
}

std::atomic<std::int64_t> g_phase_ns[static_cast<int>(Phase::kCount)];
thread_local int tls_phase_depth[static_cast<int>(Phase::kCount)];

}  // namespace

Counter& counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(counters_mu());
  auto& slot = counters()[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

std::vector<std::pair<std::string, std::int64_t>> metrics_snapshot() {
  std::vector<std::pair<std::string, std::int64_t>> out;
  {
    std::lock_guard<std::mutex> lock(counters_mu());
    out.reserve(counters().size() + 1);
    for (const auto& [name, c] : counters()) out.emplace_back(name, c->value());
  }
  out.emplace_back("process.rss_peak_kb", rss_peak_kb());
  return out;
}

void metrics_reset() {
  std::lock_guard<std::mutex> lock(counters_mu());
  for (auto& [name, c] : counters()) c->set(0);
}

bool write_metrics_json(const std::string& path) {
  // One counter per line: the top-level and "metrics" objects expand.
  exp::JsonWriter w(/*expand_depth=*/2);
  w.begin_object().key("metrics").begin_object();
  for (const auto& [name, value] : metrics_snapshot())
    w.key(name).integer(value);
  w.end_object().end_object();
  return exp::write_text_file(path, w.take() + "\n");
}

PhaseTimer::PhaseTimer(Phase p) : phase_(p) {
  const int i = static_cast<int>(p);
  active_ = tls_phase_depth[i]++ == 0;
  if (active_) t0_ = now_ns();
}

PhaseTimer::~PhaseTimer() {
  const int i = static_cast<int>(phase_);
  --tls_phase_depth[i];
  if (active_)
    g_phase_ns[i].fetch_add(now_ns() - t0_, std::memory_order_relaxed);
}

PhaseBreakdown phase_snapshot() {
  auto secs = [](Phase p) {
    return static_cast<double>(
               g_phase_ns[static_cast<int>(p)].load(std::memory_order_relaxed)) /
           1e9;
  };
  PhaseBreakdown b;
  b.sample_s = secs(Phase::kSample);
  b.train_s = secs(Phase::kTrain);
  b.encode_s = secs(Phase::kEncode);
  b.aggregate_s = secs(Phase::kAggregate);
  b.eval_s = secs(Phase::kEval);
  return b;
}

void phase_reset() {
  for (auto& p : g_phase_ns) p.store(0, std::memory_order_relaxed);
}

}  // namespace fp::obs
