#include "baselines/fedrbn.hpp"

#include "fed/budget_exec.hpp"

namespace fp::baselines {

FedRbn::FedRbn(fed::FedEnv& env, FedRbnConfig cfg)
    : FederatedAlgorithm(env, cfg.fl),
      init_rng_(cfg.fl.seed ^ 0xb7123),
      cfg2_(cfg),
      model_(cfg.model_spec, init_rng_),
      full_mem_bytes_(sys::module_train_mem_bytes(
          cfg.model_spec, 0, cfg.model_spec.atoms.size(), cfg.fl.batch_size,
          false)) {}

void FedRbn::begin_dispatch(const std::vector<fed::TaskSpec>& tasks) {
  clients_.begin_round(tasks);
  // The snapshot survives across dispatch groups until finalize_round
  // changes the model (async dropout/straggler refills reuse it). Clients
  // train from the blob as the wire codec delivers it.
  if (broadcast_.empty()) {
    broadcast_bytes_ = 0;
    broadcast_ =
        engine().channel().downlink(model_.save_all(), &broadcast_bytes_);
  }
  round_sgd_ = cfg_.sgd;
  if (!tasks.empty()) round_sgd_.lr = tasks.front().lr;

  // Per-client adversarial eligibility is a pure function of the sampled
  // devices; compute it up front so the counters stay in client order.
  can_at_.assign(tasks.size(), 1);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    can_at_[i] = !tasks[i].has_device ||
                 static_cast<double>(tasks[i].device.avail_mem_bytes) *
                         cfg2_.device_mem_scale >=
                     static_cast<double>(full_mem_bytes_);
    ++selections_;
    at_selections_ += can_at_[i];
  }
}

fed::Upload FedRbn::train_client(const fed::TaskSpec& task) {
  const bool can_at = can_at_[task.slot] != 0;
  Rng build_rng(0);  // replica init is overwritten by the broadcast blob
  models::BuiltModel local(model_.spec(), build_rng);
  local.load_all(broadcast_);
  LocalAtConfig at;
  at.epsilon = cfg_.epsilon0;
  at.pgd_steps = can_at ? cfg_.pgd_steps : 0;
  at.adversarial = can_at;
  at.dual_bn = can_at;

  fed::Upload up;
  up.weight = task.weight;
  up.work.atom_begin = 0;
  up.work.atom_end = env_->cost_spec.atoms.size();
  up.work.with_aux = false;
  // Standard training on memory-poor clients: 1 forward + 1 backward and
  // the model may still need swapping if even ST exceeds memory.
  up.work.pgd_steps = can_at ? cfg_.pgd_steps : 0;
  // Budget-aware execution (mem subsystem): dual-BN whole-model training,
  // checkpointed when the bound budget demands it.
  fed::apply_budgeted_execution(model_.spec(), 0, local.num_atoms(),
                                cfg_.batch_size, /*with_aux_head=*/false,
                                /*adversarial=*/can_at,
                                /*aux_params_loaded=*/0, local,
                                engine().config().mem.device_mem_scale,
                                &up.work);

  nn::Sgd opt(local.parameters_range(0, local.num_atoms()),
              local.gradients_range(0, local.num_atoms()), round_sgd_);
  auto& batches = clients_.batches(task.client, cfg_.batch_size);
  for (std::int64_t it = 0; it < cfg_.local_iters; ++it)
    at_train_batch(local, opt, batches.next(), at, clients_.rng(task.client));

  up.bytes_down = broadcast_bytes_;
  up.payload =
      engine().channel().uplink(local.save_all(), &broadcast_, &up.bytes_up);
  return up;
}

void FedRbn::apply_update(const fed::TaskSpec& /*task*/, fed::Upload&& up,
                          fed::ApplyMode mode, float mix) {
  auto& blob = std::any_cast<nn::ParamBlob&>(up.payload);
  if (mode == fed::ApplyMode::kBlend) {
    averager_.add(model_.save_all(), 1.0f - mix);
    averager_.add(blob, mix);
  } else {
    averager_.add(blob, up.weight);
  }
}

void FedRbn::finalize_round(std::int64_t /*t*/) {
  clients_.end_round();
  if (averager_.empty()) return;
  model_.load_all(averager_.average());
  averager_.reset();
  broadcast_.clear();  // model changed: next dispatch re-snapshots
}

fed::RoundRecord FedRbn::evaluate_snapshot(std::int64_t round,
                                           std::int64_t max_samples,
                                           int pgd_steps) {
  attack::RobustEvalConfig ecfg;
  ecfg.epsilon = cfg_.epsilon0;
  ecfg.pgd_steps = pgd_steps;
  ecfg.max_samples = max_samples;
  ecfg.compute = cfg_.compute;
  fed::RoundRecord rec;
  rec.round = round;
  use_adv_bank(false);
  rec.clean_acc = attack::evaluate_clean(model_, env_->test, ecfg.batch_size,
                                         max_samples, ecfg.compute);
  use_adv_bank(true);
  rec.adv_acc = attack::evaluate_pgd(model_, env_->test, ecfg);
  use_adv_bank(false);
  rec.sim_time_s = sim_time().total();
  rec.bytes_up = total_stats().bytes_up;
  rec.bytes_down = total_stats().bytes_down;
  return rec;
}

}  // namespace fp::baselines
