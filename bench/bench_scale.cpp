// Million-client federation engine: O(sampled) round cost at pool scale.
//
// The historical benches materialize every client's shard and runtime state
// up front, so pool size N prices every round even though only C << N clients
// ever train. The scale plane (DESIGN.md §9) flips that: plan-backed pools
// synthesize a sampled client's shard on dispatch from (seed, client_id) and
// discard it after upload, edge aggregators partially reduce each wave before
// the server applies it, and a stateless availability-churn process thins the
// sampled cohort. This binary drives jFAT (plain FedAvg: adversarial off)
// over a 1M-client pool — FP_BENCH_FAST=1 shrinks it to 100k — under three
// schedules (flat, hierarchical, churned) and reports per-round wall-clock
// plus process peak RSS, which must stay O(sampled), not O(pool).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_common.hpp"
#include "obs/trace.hpp"

namespace fp::bench {
namespace {

/// Process-lifetime peak resident set size in MB (getrusage; 0 if the
/// platform reports nothing). A whole-process measure, so the interesting
/// quantity is its growth between scenarios, not its level.
double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / 1e6;  // bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1e3;  // kilobytes
#endif
#else
  return 0.0;
#endif
}

/// One [scale] pool-residency summary line per trained scenario: pool size,
/// distinct clients ever dispatched, edge-merged backbone savings, peak RSS.
void print_scale_summary(const exp::RunResult& r, const exp::Setup& s) {
  std::printf(
      "    [scale] %-12s pool %lld  unique %lld  agg-saved %8.2f MB  "
      "peak-rss %8.1f MB\n",
      r.name.c_str(), static_cast<long long>(s.spec.fl.num_clients),
      static_cast<long long>(r.unique_participants),
      static_cast<double>(r.agg_bytes_saved) / 1e6, peak_rss_mb());
}

struct ScaleScenario {
  const char* label;
  std::vector<const char*> overrides;
};

exp::ExperimentSpec scale_spec() {
  exp::ExperimentSpec spec;
  spec.method = "jFAT";
  spec.adversarial = false;     // plain FedAvg forwards: the pool is the story
  spec.model_width = 4;
  spec.with_public_set = false;
  spec.env_lazy_clients = true;
  spec.env_shard_size = 32;
  spec.fl.num_clients = fast_mode() ? 100'000 : 1'000'000;
  spec.fl.clients_per_round = fast_mode() ? 64 : 256;
  spec.fl.rounds = fast_mode() ? 2 : 3;
  spec.fl.local_iters = 2;
  spec.eval_max_samples = 64;
  return spec;
}

}  // namespace
}  // namespace fp::bench

int main(int argc, char** argv) {
  using namespace fp::bench;
  if (const int rc = parse_bench_args(
          argc, argv, "bench_scale",
          "million-client pools: lazy shards, edge aggregation, churn");
      rc >= 0)
    return rc;

  const ScaleScenario scenarios[] = {
      {"scale-flat", {}},
      {"scale-tree", {"env.aggregators=16", "comm.model_network=true"}},
      {"scale-churn",
       {"env.churn.enabled=true", "env.churn.online_frac=0.7",
        "env.churn.drop_prob=0.1"}},
  };

  const auto base = scale_spec();
  std::printf("=== Million-client federation: O(sampled) round cost ===\n\n");
  std::printf("-- pool %lld clients, %lld sampled/round, %lld rounds, "
              "lazy shards (%lld samples each) --\n\n",
              static_cast<long long>(base.fl.num_clients),
              static_cast<long long>(base.fl.clients_per_round),
              static_cast<long long>(base.fl.rounds),
              static_cast<long long>(base.env_shard_size));
  std::printf("%-14s %10s %10s %12s %10s\n", "schedule", "Clean", "sim (s)",
              "wall/round", "dropped");

  double worst_rss = 0.0;
  for (const auto& sc : scenarios) {
    fp::exp::ExperimentSpec spec = scale_spec();
    for (const char* kv : sc.overrides) fp::exp::apply_override(spec, kv);
    const std::int64_t rounds = spec.fl.rounds;
    auto setup = fp::exp::build_setup(std::move(spec));
    const double t0 = fp::obs::now_s();
    const auto r =
        fp::exp::run_on_setup(setup, std::string("jFAT-") + sc.label);
    const double wall = fp::obs::now_s() - t0;
    std::printf("%-14s %9.1f%% %10.1f %11.2fs %10zu\n", sc.label,
                100 * r.metrics.clean_acc, r.sim_time.total(),
                wall / static_cast<double>(rounds > 0 ? rounds : 1), r.dropped);
    print_scale_summary(r, setup);
    std::fflush(stdout);
    if (peak_rss_mb() > worst_rss) worst_rss = peak_rss_mb();
  }

  // O(sampled) residency regression check (FAST/CI only: the 100k pool with
  // 64 sampled clients fits far below this even with GTest/loader overhead;
  // a materialized pool would need ~100k shards * 32 * 3*16*16 floats ~ 10 GB).
  // ThreadSanitizer's shadow memory inflates ru_maxrss ~5-10x, so the ceiling
  // only binds in plain builds.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FP_BENCH_SCALE_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FP_BENCH_SCALE_SANITIZED 1
#endif
#ifndef FP_BENCH_SCALE_SANITIZED
  if (fast_mode() && worst_rss > 1024.0) {
    std::fprintf(stderr,
                 "bench_scale: peak RSS %.1f MB exceeds the 1024 MB "
                 "O(sampled) ceiling — lazy client state is leaking\n",
                 worst_rss);
    return 1;
  }
#endif
  std::printf(
      "\nlazy pools keep only the sampled cohort resident; the edge tier\n"
      "merges each wave before the backbone hop; churn thins the cohort\n"
      "from a dedicated stream so churn-off runs stay bit-identical.\n");
  return 0;
}
