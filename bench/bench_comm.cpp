// Compressed wire codecs x schedulers on the heterogeneous fleet.
//
// Every scenario trains the same jFAT workload through the engine's comm
// channel with the network model ENABLED, so round times include each
// client's download + upload over its degraded link and straggler cutoffs
// judge the full round-trip. Sweeps the four wire codecs under both the sync
// barrier and the async event-driven scheduler and reports the
// accuracy-vs-bytes tradeoff axis: final accuracy, cumulative wire traffic,
// simulated wall-clock (with the comm share), and the uploaded bytes needed
// to reach a matched accuracy target (0.9x the identity-sync final clean
// accuracy — the codec pays for itself when it reaches the same target on
// fewer bytes).
//
// Every cell is one declarative spec (bench_common::comm_scenario_spec); the
// shipped configs/bench_comm_int8_sync.json is the resolved int8+sync cell,
// reproducible standalone via `fp_run --config`.
#include <vector>

#include "bench_common.hpp"

namespace fp::bench {
namespace {

/// Cumulative uploaded bytes at the first snapshot reaching `target` clean
/// accuracy (<0 = never reached).
double bytes_to_accuracy(const fed::History& h, double target) {
  for (const auto& rec : h)
    if (rec.clean_acc >= target) return static_cast<double>(rec.bytes_up);
  return -1.0;
}

}  // namespace
}  // namespace fp::bench

int main(int argc, char** argv) {
  using namespace fp::bench;
  if (const int rc = parse_bench_args(
          argc, argv, "bench_comm",
          "wire codecs x schedulers: accuracy vs uploaded bytes");
      rc >= 0)
    return rc;
  struct Scenario {
    const char* codec;
    const char* scheduler;
  };
  const Scenario scenarios[] = {
      {"identity", "sync"},  {"fp16", "sync"},  {"int8", "sync"},
      {"topk", "sync"},      {"identity", "async"}, {"fp16", "async"},
      {"int8", "async"},     {"topk", "async"},
  };

  std::printf("=== Wire codecs x schedulers: accuracy vs bytes ===\n\n");
  const auto& cifar = fp::exp::workload_registry().resolve("cifar");
  std::printf("-- %s, balanced fleet, persistent binding, network model on --\n",
              cifar.display_name.c_str());

  std::vector<fp::exp::RunResult> results;
  std::vector<std::string> labels;
  for (const auto& sc : scenarios) {
    // A fresh spec per cell: every codec/scheduler pair sees the same data
    // partition, fleet binding, and degradation streams.
    labels.push_back(std::string(sc.codec) + "-" + sc.scheduler);
    auto spec = comm_scenario_spec(sc.codec, sc.scheduler);
    const fp::fed::FlConfig fl = spec.fl;
    auto r =
        fp::exp::run_experiment(std::move(spec), "jFAT-comm-" + labels.back());
    fp::exp::print_comm_line(r, fl);
    results.push_back(std::move(r));
  }

  // Matched accuracy target: 90% of the uncompressed sync run's final clean
  // accuracy, from its own history so target and trajectories share the same
  // evaluation subsample.
  const auto& base_history = results.front().history;
  const double target =
      base_history.empty() ? 1.0 : 0.9 * base_history.back().clean_acc;
  const double base_up[2] = {
      static_cast<double>(results[0].bytes_up),   // sync baseline
      static_cast<double>(results[4].bytes_up)};  // async baseline

  std::printf("\n%-16s %8s %8s %10s %8s %9s %9s %7s %14s\n", "scenario",
              "Clean", "PGD-10", "sim (s)", "comm%", "up (MB)", "down (MB)",
              "up x", "upB@target");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double total = r.sim_time.total();
    const double up = static_cast<double>(r.bytes_up);
    const double ratio = up > 0 ? base_up[i / 4] / up : 0.0;
    const double at_target = bytes_to_accuracy(r.history, target);
    std::printf("%-16s %7.1f%% %7.1f%% %10.1f %7.1f%% %9.2f %9.2f %6.1fx ",
                labels[i].c_str(), 100 * r.metrics.clean_acc,
                100 * r.metrics.pgd_acc, total,
                total > 0 ? 100 * r.sim_time.comm_s / total : 0.0, up / 1e6,
                static_cast<double>(r.bytes_down) / 1e6, ratio);
    if (at_target >= 0)
      std::printf("%11.2f MB\n", at_target / 1e6);
    else
      std::printf("%14s\n", "not reached");
    std::fflush(stdout);
  }
  std::printf(
      "\n'up x' is the uploaded-byte reduction vs the identity codec under\n"
      "the same scheduler; 'upB@target' is the cumulative upload needed to\n"
      "reach %.1f%% clean accuracy (0.9x the identity-sync final).\n",
      100 * target);
  return 0;
}
