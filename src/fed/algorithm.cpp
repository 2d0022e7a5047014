#include "fed/algorithm.hpp"

#include <algorithm>

namespace fp::fed {

FederatedAlgorithm::FederatedAlgorithm(FedEnv& env, FlConfig cfg,
                                       std::uint64_t client_stream_base)
    : env_(&env),
      cfg_(cfg),
      clients_(env, cfg_.seed, client_stream_base),
      engine_(std::make_unique<RoundEngine>(env, cfg_)) {}

FederatedAlgorithm::~FederatedAlgorithm() = default;

void FederatedAlgorithm::run_round(std::int64_t t) {
  last_stats_ = engine_->run_round(*this, t);
  add_sim_time(last_stats_.time);  // running total lives in sim_time_
  total_stats_.dispatched += last_stats_.dispatched;
  total_stats_.applied += last_stats_.applied;
  total_stats_.dropped_stragglers += last_stats_.dropped_stragglers;
  total_stats_.dropped_out += last_stats_.dropped_out;
  total_stats_.bytes_down += last_stats_.bytes_down;
  total_stats_.bytes_up += last_stats_.bytes_up;
  total_stats_.peak_mem_bytes =
      std::max(total_stats_.peak_mem_bytes, last_stats_.peak_mem_bytes);
  total_stats_.over_budget += last_stats_.over_budget;
  // Already cumulative in the engine (distinct-client set size).
  total_stats_.unique_participants = last_stats_.unique_participants;
  total_stats_.agg_bytes_saved += last_stats_.agg_bytes_saved;
  total_stats_.measured_comm_s += last_stats_.measured_comm_s;
  total_stats_.round_wall_s += last_stats_.round_wall_s;
}

void FederatedAlgorithm::run(std::int64_t eval_every) {
  for (std::int64_t t = 0; t < cfg_.rounds; ++t) {
    run_round(t);
    if (eval_every > 0 && (t + 1) % eval_every == 0)
      history_.push_back(evaluate_snapshot(t + 1));
  }
  if (history_.empty() || history_.back().round != cfg_.rounds)
    history_.push_back(evaluate_snapshot(cfg_.rounds));
}

RoundRecord FederatedAlgorithm::evaluate_snapshot(std::int64_t round,
                                                  std::int64_t max_samples,
                                                  int pgd_steps) {
  attack::RobustEvalConfig ecfg;
  ecfg.epsilon = cfg_.epsilon0;
  ecfg.pgd_steps = pgd_steps;
  ecfg.max_samples = max_samples;
  ecfg.compute = cfg_.compute;
  RoundRecord rec;
  rec.round = round;
  rec.clean_acc = attack::evaluate_clean(global_model(), env_->test,
                                         ecfg.batch_size, max_samples,
                                         ecfg.compute);
  rec.adv_acc = attack::evaluate_pgd(global_model(), env_->test, ecfg);
  rec.sim_time_s = sim_time_.total();
  rec.bytes_up = total_stats_.bytes_up;
  rec.bytes_down = total_stats_.bytes_down;
  rec.peak_mem_bytes = total_stats_.peak_mem_bytes;
  rec.unique_participants = total_stats_.unique_participants;
  rec.agg_bytes_saved = total_stats_.agg_bytes_saved;
  rec.measured_comm_s = total_stats_.measured_comm_s;
  rec.round_wall_s = total_stats_.round_wall_s;
  return rec;
}

}  // namespace fp::fed
