#include "baselines/jfat.hpp"

#include "fed/budget_exec.hpp"

namespace fp::baselines {

JFat::JFat(fed::FedEnv& env, JFatConfig cfg)
    : FederatedAlgorithm(env, cfg.fl),
      init_rng_(cfg.fl.seed ^ 0x1fa7),
      model_(std::move(cfg.model_spec), init_rng_),
      adversarial_(cfg.adversarial),
      round_sgd_(cfg_.sgd) {
  at_.epsilon = cfg_.epsilon0;
  at_.pgd_steps = adversarial_ ? cfg_.pgd_steps : 0;
  at_.adversarial = adversarial_;
}

void JFat::begin_dispatch(const std::vector<fed::TaskSpec>& tasks) {
  clients_.begin_round(tasks);
  // The snapshot survives across dispatch groups until finalize_round
  // changes the model (async dropout/straggler refills reuse it). Clients
  // train from the blob as the wire codec delivers it.
  if (broadcast_.empty()) {
    broadcast_bytes_ = 0;
    broadcast_ =
        engine().channel().downlink(model_.save_all(), &broadcast_bytes_);
  }
  round_sgd_.lr = tasks.empty() ? cfg_.sgd.lr : tasks.front().lr;
}

fed::Upload JFat::train_client(const fed::TaskSpec& task) {
  Rng build_rng(0);  // replica init is overwritten by the broadcast blob
  models::BuiltModel local(model_.spec(), build_rng);
  local.load_all(broadcast_);

  fed::Upload up;
  up.weight = task.weight;
  up.work.atom_begin = 0;
  up.work.atom_end = env_->cost_spec.atoms.size();
  up.work.with_aux = false;
  up.work.pgd_steps = at_.pgd_steps;
  // Budget-aware execution (mem subsystem): whole-model adversarial training
  // is the method that overruns client memory, so plan the step's peak and
  // checkpoint when the bound budget demands it. jFAT is priced on the
  // paper-shape cost spec, hence the device_mem_scale mapping.
  fed::apply_budgeted_execution(model_.spec(), 0, local.num_atoms(),
                                cfg_.batch_size, /*with_aux_head=*/false,
                                at_.adversarial && at_.pgd_steps > 0,
                                /*aux_params_loaded=*/0, local,
                                engine().config().mem.device_mem_scale,
                                &up.work);

  nn::Sgd opt(local.parameters_range(0, local.num_atoms()),
              local.gradients_range(0, local.num_atoms()), round_sgd_);
  auto& batches = clients_.batches(task.client, cfg_.batch_size);
  for (std::int64_t it = 0; it < cfg_.local_iters; ++it)
    at_train_batch(local, opt, batches.next(), at_, clients_.rng(task.client));

  up.bytes_down = broadcast_bytes_;
  // Uplink through the engine's channel: the server aggregates the update as
  // the codec decodes it (delta codecs reference the broadcast both ends hold).
  up.payload =
      engine().channel().uplink(local.save_all(), &broadcast_, &up.bytes_up);
  return up;
}

void JFat::net_state(comm::StateIO& io) {
  io.msg(broadcast_);
  io(broadcast_bytes_);
  io(round_sgd_.lr);
}

void JFat::net_upload(fed::Upload& up, comm::StateIO& io) {
  if (io.reading()) up.payload = nn::ParamBlob{};
  io.msg(std::any_cast<nn::ParamBlob&>(up.payload), &broadcast_);
}

void JFat::apply_update(const fed::TaskSpec& /*task*/, fed::Upload&& up,
                        fed::ApplyMode mode, float mix) {
  auto& blob = std::any_cast<nn::ParamBlob&>(up.payload);
  if (mode == fed::ApplyMode::kBlend) {
    averager_.add(model_.save_all(), 1.0f - mix);
    averager_.add(blob, mix);
  } else {
    averager_.add(blob, up.weight);
  }
}

void JFat::finalize_round(std::int64_t /*t*/) {
  clients_.end_round();
  if (averager_.empty()) return;
  model_.load_all(averager_.average());
  averager_.reset();
  broadcast_.clear();  // model changed: next dispatch re-snapshots
}

}  // namespace fp::baselines
