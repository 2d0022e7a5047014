// Shared scaffolding for the benchmark binaries: the CLI banner, and the
// scenario benches' spec builders and time-to-accuracy readout. Training and
// reporting go through the declarative experiment API directly
// (exp::build_setup, exp::run_experiment, exp::print_*_line; DESIGN.md §7).
//
// Set FP_BENCH_FAST=1 to shrink every training run ~4x (CI smoke).
#pragma once

#include <cstdint>
#include <string>

#include "exp/runner.hpp"

namespace fp::bench {

using exp::fast_mode;
using exp::scaled;

/// First simulated second at which clean accuracy reached `target`
/// (<0 = never).
double time_to_accuracy(const fed::History& h, double target);

/// Matched client-update budget for scheduler comparisons: one sync barrier
/// round trains C clients; one async round applies a single update. Sets
/// fl.rounds and the eval cadence accordingly.
void apply_matched_budget(exp::ExperimentSpec& spec, std::int64_t sync_rounds,
                          std::int64_t eval_every_sync = 3);

/// One bench_comm sweep cell as a spec: jFAT through the engine's comm
/// channel with the network model enabled and persistent fleet binding.
/// `sync_rounds < 0` uses the bench default scaled(12). The shipped config
/// configs/bench_comm_int8_sync.json is the resolved int8+sync cell.
exp::ExperimentSpec comm_scenario_spec(const std::string& codec,
                                       const std::string& scheduler,
                                       std::int64_t sync_rounds = -1);

/// Shared CLI handling for the bench binaries: prints the usage banner (with
/// the FP_BENCH_FAST / FP_BENCH_OUT / FP_NUM_THREADS notes every binary used
/// to duplicate) on --help or any unknown argument. Returns an exit code to
/// return immediately, or -1 to continue into the bench.
int parse_bench_args(int argc, char** argv, const char* name,
                     const char* description);

}  // namespace fp::bench
