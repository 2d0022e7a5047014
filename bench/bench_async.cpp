// Async-vs-sync time-to-accuracy on the heterogeneous device pool.
//
// The sync barrier pays the slowest sampled client every round (the paper's
// Figs. 2/7 pathology); the event-driven AsyncScheduler keeps the same number
// of clients in flight, applies each update the moment it arrives with a
// FedAsync-style staleness-decayed coefficient, and never waits on a
// straggler. This scenario binary trains jFAT under four schedules on the
// same fleet — sync, async, async + straggler cutoff, async + dropout — with
// a matched client-update budget (one sync round = C async aggregation
// events), then reports final accuracy, total simulated wall-clock, and
// time-to-accuracy. Each schedule is a declarative spec delta over the same
// base scenario (persistent client-device binding, as in the paper's setup),
// run through the shared exp:: experiment pipeline.
#include <vector>

#include "bench_common.hpp"

namespace fp::bench {
namespace {

struct Scenario {
  const char* label;
  std::vector<const char*> overrides;  ///< spec deltas defining the schedule
};

exp::RunResult run_async_scenario(const Scenario& sc) {
  // A fresh spec per scenario: every schedule sees the same data partition,
  // fleet binding, and degradation streams.
  exp::ExperimentSpec spec;
  spec.method = "jFAT";
  spec.persistent_devices = true;
  for (const char* kv : sc.overrides) exp::apply_override(spec, kv);
  // Matched client-update budget: one sync barrier round trains C clients;
  // one async round applies a single update.
  apply_matched_budget(spec, scaled(12));
  return exp::run_experiment(std::move(spec), std::string("jFAT-") + sc.label);
}

}  // namespace
}  // namespace fp::bench

int main(int argc, char** argv) {
  using namespace fp::bench;
  if (const int rc = parse_bench_args(
          argc, argv, "bench_async",
          "async-vs-sync scheduling: time-to-accuracy on the device fleet");
      rc >= 0)
    return rc;
  const Scenario scenarios[] = {
      {"sync", {"fl.scheduler=sync"}},
      {"async", {"fl.scheduler=async"}},
      // The scaled-down fleet finishes a local round in ~1 s at the slowest;
      // a 0.5 s budget actually discards the slow tail.
      {"async-cutoff", {"fl.scheduler=async", "async.straggler_cutoff_s=0.5"}},
      {"async-dropout", {"fl.scheduler=async", "async.dropout_prob=0.2"}},
  };

  std::printf("=== Async vs sync scheduling: time-to-accuracy ===\n\n");
  const auto& cifar = fp::exp::workload_registry().resolve("cifar");
  std::printf("-- %s, balanced fleet, persistent client-device binding --\n",
              cifar.display_name.c_str());
  std::printf("%-14s %10s %10s %8s %8s %8s %14s\n", "schedule", "Clean",
              "PGD-10", "sim (s)", "access%", "dropped", "t@0.9*final");

  std::vector<fp::exp::RunResult> results;
  for (const auto& sc : scenarios) results.push_back(run_async_scenario(sc));

  // Time-to-accuracy target: 90% of the sync run's final clean accuracy,
  // taken from its own history so target and trajectories share the same
  // evaluation subsample.
  const auto& sync_history = results.front().history;
  const double target =
      sync_history.empty() ? 1.0 : 0.9 * sync_history.back().clean_acc;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double total = r.sim_time.total();
    const double tta = time_to_accuracy(r.history, target);
    std::printf("%-14s %9.1f%% %9.1f%% %8.1f %7.1f%% %8zu ",
                scenarios[i].label, 100 * r.metrics.clean_acc,
                100 * r.metrics.pgd_acc, total,
                total > 0 ? 100 * r.sim_time.access_s / total : 0.0, r.dropped);
    if (tta >= 0)
      std::printf("%13.1fs\n", tta);
    else
      std::printf("%14s\n", "not reached");
    std::fflush(stdout);
  }
  std::printf(
      "\nasync rounds apply one staleness-weighted update each; budgets are\n"
      "matched at C updates per sync round.\n");
  return 0;
}
