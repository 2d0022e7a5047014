// Memory-budget sweep: time-to-accuracy under shrinking client budgets.
//
// The paper's premise is that memory-constrained federated adversarial
// training either swaps (jFAT) or must restructure the computation. This
// scenario binary trains jFAT on the fast CIFAR scenario under enforced
// per-client budgets of {1x, 0.5x, 0.25x} the measured full-training peak,
// each in two execution modes:
//  * swap-priced  — the overrun is streamed to storage (checkpointing off):
//    aggregates are untouched, but the simulated clock pays the swap
//    traffic, so time-to-accuracy degrades as the budget shrinks;
//  * checkpointed — drop-and-recompute keeps the measured arena high-water
//    within the budget at the price of extra forward FLOPs (bit-identical
//    gradients, so accuracy per round is unchanged by construction).
// Reported per cell: final clean/PGD accuracy, measured peak bytes, budget
// violations, total simulated time, and time-to-accuracy. Every cell is a
// declarative spec delta (mem.* keys) over the same base scenario.
#include <vector>

#include "bench_common.hpp"
#include "fed/history_io.hpp"
#include "models/zoo.hpp"

namespace fp::bench {
namespace {

struct Cell {
  std::string label;
  bool checkpointing = false;
  exp::RunResult method;
  std::int64_t budget_bytes = 0;
};

/// The budget-sweep spec: jFAT with measurement on; > 0 budget bytes enforce
/// the budget in the requested execution mode. A fresh spec/env per cell:
/// identical data partition, fleet, and RNG streams.
exp::ExperimentSpec budgeted_spec(std::int64_t budget_bytes, bool checkpointing,
                                  double mem_scale) {
  exp::ExperimentSpec spec;
  spec.method = "jFAT";
  spec.fl.rounds = scaled(12);
  spec.eval_every = 3;
  spec.fl.mem.measure = true;
  // Maps measured trainable-plane bytes onto the paper pricing plane so a
  // full-peak budget prices like the analytic baseline (0 = the setup's auto
  // trainable/paper ratio).
  spec.fl.mem.device_mem_scale = mem_scale;
  if (budget_bytes > 0) {
    spec.fl.mem.enforce_budget = true;
    spec.fl.mem.checkpointing = checkpointing;
    spec.fl.mem.budget_override_bytes = budget_bytes;
  }
  return spec;
}

}  // namespace
}  // namespace fp::bench

int main(int argc, char** argv) {
  using namespace fp::bench;
  if (const int rc = parse_bench_args(
          argc, argv, "bench_mem",
          "memory-budget sweep: jFAT under enforced client budgets");
      rc >= 0)
    return rc;
  std::printf("=== Memory-budget sweep: jFAT under enforced client budgets ===\n\n");
  const auto base = fp::exp::build_setup(fp::exp::ExperimentSpec{});
  const std::int64_t full_plan =
      fp::exp::planned_full_peak(base.model, base.spec.fl.batch_size);

  // Self-calibrating reference: the unbudgeted run measures the actual
  // full-training peak; budgets are fractions of THAT, and the pricing scale
  // maps it onto the paper-shape analytic requirement.
  std::vector<Cell> cells;
  cells.push_back({"unbudgeted", false, {}, 0});
  cells.front().method =
      fp::exp::run_experiment(budgeted_spec(0, false, 0.0), "jFAT");
  const std::int64_t ref_peak = cells.front().method.peak_mem_bytes;
  const auto paper = fp::models::vgg16_spec(32, 10);
  const std::int64_t paper_mem = fp::sys::module_train_mem_bytes(
      paper, 0, paper.atoms.size(), base.spec.fl.batch_size, false);
  const double mem_scale =
      static_cast<double>(ref_peak) / static_cast<double>(paper_mem);
  std::printf(
      "full-training peak: planned %.2f MB, measured %.2f MB "
      "(trainable backbone, B=%lld)\n\n",
      static_cast<double>(full_plan) / 1e6,
      static_cast<double>(ref_peak) / 1e6,
      static_cast<long long>(base.spec.fl.batch_size));

  for (const double frac : {1.0, 0.5, 0.25}) {
    for (const bool ckpt : {false, true}) {
      Cell c;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%4.2fx %s", frac,
                    ckpt ? "checkpointed" : "swap-priced");
      c.label = buf;
      c.checkpointing = ckpt;
      c.budget_bytes =
          static_cast<std::int64_t>(frac * static_cast<double>(ref_peak));
      cells.push_back(c);
    }
  }

  for (auto& c : cells) {
    if (c.budget_bytes == 0 && !c.checkpointing && c.label == "unbudgeted")
      continue;  // reference already ran
    c.method = fp::exp::run_experiment(
        budgeted_spec(c.budget_bytes, c.checkpointing, mem_scale),
        "jFAT-mem-" + fp::fed::sanitize_filename(c.label));
  }

  // Time-to-accuracy target: 90% of the unbudgeted run's final clean
  // accuracy, measured on its own history.
  const auto& ref = cells.front().method.history;
  const double target = ref.empty() ? 1.0 : 0.9 * ref.back().clean_acc;

  std::printf("%-20s %8s %8s %10s %8s %9s %12s\n", "budget", "Clean", "PGD-10",
              "peak MB", "over", "sim (s)", "t@0.9*final");
  for (const auto& c : cells) {
    const double tta = time_to_accuracy(c.method.history, target);
    std::printf("%-20s %7.1f%% %7.1f%% %10.2f %8zu %9.1f ", c.label.c_str(),
                100 * c.method.metrics.clean_acc,
                100 * c.method.metrics.pgd_acc,
                static_cast<double>(c.method.peak_mem_bytes) / 1e6,
                c.method.over_budget, c.method.sim_time.total());
    if (tta >= 0)
      std::printf("%11.1fs\n", tta);
    else
      std::printf("%12s\n", "not reached");
    std::fflush(stdout);
  }
  std::printf(
      "\nswap-priced cells keep plain execution and pay the overrun as\n"
      "simulated storage traffic; checkpointed cells keep the measured peak\n"
      "within budget (bit-identical gradients, extra recompute FLOPs).\n");
  return 0;
}
