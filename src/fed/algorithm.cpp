#include "fed/algorithm.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace fp::fed {

FederatedAlgorithm::FederatedAlgorithm(FedEnv& env, FlConfig cfg,
                                       std::uint64_t client_stream_base)
    : env_(&env),
      cfg_(cfg),
      clients_(env, cfg_.seed, client_stream_base),
      engine_(std::make_unique<RoundEngine>(env, cfg_)) {}

FederatedAlgorithm::~FederatedAlgorithm() = default;

void FederatedAlgorithm::run_round(std::int64_t t) {
  const RoundStats last = engine_->run_round(*this, t);
  add_sim_time(last.time);  // running total lives in sim_time_
  total_stats_.dispatched += last.dispatched;
  total_stats_.applied += last.applied;
  total_stats_.dropped_stragglers += last.dropped_stragglers;
  total_stats_.dropped_out += last.dropped_out;
  total_stats_.bytes_down += last.bytes_down;
  total_stats_.bytes_up += last.bytes_up;
  total_stats_.peak_mem_bytes =
      std::max(total_stats_.peak_mem_bytes, last.peak_mem_bytes);
  total_stats_.over_budget += last.over_budget;
  // Already cumulative in the engine (distinct-client set size).
  total_stats_.unique_participants = last.unique_participants;
  total_stats_.agg_bytes_saved += last.agg_bytes_saved;
  total_stats_.measured_comm_s += last.measured_comm_s;
  total_stats_.round_wall_s += last.round_wall_s;
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

attack::RobustEvalResult FederatedAlgorithm::evaluate(
    const attack::RobustEvalConfig& cfg) {
  return evaluate_banks(cfg, /*with_aa=*/true);
}

attack::RobustEvalResult FederatedAlgorithm::evaluate_banks(
    const attack::RobustEvalConfig& cfg, bool with_aa) {
  obs::PhaseTimer eval_phase(obs::Phase::kEval);
  models::BuiltModel& model = global_model();
  const data::Dataset& test = env_->test;
  const bool split = !single_global_model();
  const auto bank_net = [&](bool adversarial) {
    model.use_bn_bank(eval_bank(adversarial));
    return attack::shard_model(model, attack::eval_shards(test, cfg));
  };
  attack::RobustEvalResult r;
  attack::ShardedNet net = bank_net(false);
  if (split || !with_aa) r.clean_acc = attack::evaluate_clean(net, test, cfg);
  // A dual-BN method attacks its adversarial bank's replicas. AA's survival
  // starts from that bank's own clean masks, so evaluate_robustness keeps
  // its clean pass.
  if (split) net = bank_net(true);
  if (with_aa) {
    const attack::RobustEvalResult adv =
        attack::evaluate_robustness(net, test, cfg);
    if (!split) r.clean_acc = adv.clean_acc;
    r.pgd_acc = adv.pgd_acc;
    r.aa_acc = adv.aa_acc;
  } else {
    r.pgd_acc = attack::evaluate_pgd(net, test, cfg);
  }
  model.use_bn_bank(eval_bank(false));
  return r;
}

RoundRecord FederatedAlgorithm::evaluate_snapshot(std::int64_t round,
                                                  std::int64_t max_samples,
                                                  int pgd_steps) {
  attack::RobustEvalConfig ecfg;
  ecfg.epsilon = cfg_.epsilon0;
  ecfg.pgd_steps = pgd_steps;
  ecfg.max_samples = max_samples;
  ecfg.compute = cfg_.compute;
  const attack::RobustEvalResult accs = evaluate_banks(ecfg, /*with_aa=*/false);
  RoundRecord rec;
  rec.round = round;
  rec.clean_acc = accs.clean_acc;
  rec.adv_acc = accs.pgd_acc;
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
