#include "bench_common.hpp"

#include <cstdio>
#include <cstring>

namespace fp::bench {

void apply_matched_budget(exp::ExperimentSpec& spec, std::int64_t sync_rounds,
                          std::int64_t eval_every_sync) {
  if (spec.fl.scheduler == fed::SchedulerKind::kAsync) {
    spec.fl.rounds = sync_rounds * spec.fl.clients_per_round;
    spec.eval_every = eval_every_sync * spec.fl.clients_per_round;
  } else {
    spec.fl.rounds = sync_rounds;
    spec.eval_every = eval_every_sync;
  }
}

exp::ExperimentSpec comm_scenario_spec(const std::string& codec,
                                       const std::string& scheduler,
                                       std::int64_t sync_rounds) {
  exp::ExperimentSpec spec;
  spec.method = "jFAT";
  spec.persistent_devices = true;
  exp::set_key(spec, "comm.codec", codec);
  exp::set_key(spec, "fl.scheduler", scheduler);
  spec.fl.comm.topk_fraction = 0.1;  // ship the top 10% of coordinates
  spec.fl.comm.topk_delta = true;    // selected by |update - broadcast|
  spec.fl.comm.model_network = true;
  apply_matched_budget(spec, sync_rounds < 0 ? scaled(12) : sync_rounds);
  return spec;
}

int parse_bench_args(int argc, char** argv, const char* name,
                     const char* description, const char* args) {
  auto usage = [&](std::FILE* out) {
    std::fprintf(out,
                 "%s — %s\n\n"
                 "usage: %s %s\n\n"
                 "environment:\n"
                 "  FP_BENCH_FAST=1    shrink every training run ~4x (CI smoke)\n"
                 "  FP_BENCH_OUT=<dir> export per-run trajectories (CSV) and\n"
                 "                     fully-resolved specs (.spec.json);\n"
                 "                     reproduce any run with\n"
                 "                     fp_run --config <run>.spec.json\n"
                 "  FP_NUM_THREADS=<n> worker threads (default: hardware)\n\n"
                 "for arbitrary method x scheduler x codec x budget scenarios\n"
                 "use the declarative driver: fp_run --help\n",
                 name, description, name, args);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    }
    std::fprintf(stderr, "%s: unknown argument '%s'\n\n", name, argv[i]);
    usage(stderr);
    return 2;
  }
  return -1;
}

}  // namespace fp::bench
