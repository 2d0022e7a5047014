#include "baselines/partial_training.hpp"

#include <algorithm>

#include "fed/budget_exec.hpp"

namespace fp::baselines {

PartialTrainingFAT::PartialTrainingFAT(fed::FedEnv& env, PartialTrainingConfig cfg)
    : FederatedAlgorithm(env, cfg.fl),
      init_rng_(cfg.fl.seed ^ 0x9a27),
      cfg2_(cfg),
      model_(cfg.model_spec, init_rng_),
      full_mem_bytes_(sys::module_train_mem_bytes(
          cfg.model_spec, 0, cfg.model_spec.atoms.size(), cfg.fl.batch_size,
          /*with_aux_head=*/false)),
      acc_(model_) {
  acc_.reset();
}

std::string PartialTrainingFAT::name() const {
  switch (cfg2_.scheme) {
    case models::SliceScheme::kStatic: return "HeteroFL-AT";
    case models::SliceScheme::kRandom: return "FedDrop-AT";
    case models::SliceScheme::kRolling: return "FedRolex-AT";
  }
  return "PartialTraining-AT";
}

double PartialTrainingFAT::ratio_for_mem(std::int64_t avail_mem_bytes) const {
  const double scaled =
      static_cast<double>(avail_mem_bytes) * cfg2_.device_mem_scale;
  const double r = scaled / static_cast<double>(full_mem_bytes_);
  return std::clamp(r, cfg2_.min_ratio, 1.0);
}

void PartialTrainingFAT::begin_dispatch(const std::vector<fed::TaskSpec>& tasks) {
  clients_.begin_round(tasks);
  at_ = LocalAtConfig{};
  at_.epsilon = cfg_.epsilon0;
  at_.pgd_steps = cfg2_.adversarial ? cfg_.pgd_steps : 0;
  at_.adversarial = cfg2_.adversarial;
  round_sgd_ = cfg_.sgd;
  if (!tasks.empty()) round_sgd_.lr = tasks.front().lr;

  // Slice plans consume the shared per-round RNG, so draw them sequentially
  // in slot order before the training fans out. The stream is reseeded once
  // per round and persists across dispatch groups of the same round, so
  // async single-client refills keep drawing fresh random masks instead of
  // repeating the round's first one.
  const std::int64_t t = tasks.empty() ? 0 : tasks.front().round;
  if (t != slice_rng_round_) {
    slice_rng_ = Rng(cfg_.seed + 31 * static_cast<std::uint64_t>(t));
    slice_rng_round_ = t;
  }
  ratios_.resize(tasks.size());
  plans_.clear();
  plans_.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ratios_[i] = tasks[i].has_device
                     ? ratio_for_mem(tasks[i].device.avail_mem_bytes)
                     : 1.0;
    plans_.push_back(models::make_slice_plan(model_.spec(), ratios_[i],
                                             cfg2_.scheme, t, slice_rng_));
  }
}

fed::Upload PartialTrainingFAT::train_client(const fed::TaskSpec& task) {
  Rng build_rng(cfg_.seed + 77 * static_cast<std::uint64_t>(task.round) +
                task.client);
  auto sliced = std::make_shared<models::BuiltModel>(
      plans_[task.slot].sliced_spec, build_rng);
  models::gather_weights(model_.spec(), plans_[task.slot], model_, *sliced);

  fed::Upload up;
  // The server ships only the sliced sub-model, so the wire round-trip is
  // sized (and lossy-coded) on the slice, not the full network. Under a
  // lossless codec the round-trips are bit-exact no-ops: count the dense
  // frames (down and up carry the same slice-sized blob) and skip the
  // serialize/reload passes on this hot path.
  const auto& channel = engine().channel();
  nn::ParamBlob received;
  if (channel.lossless()) {
    channel.downlink(sliced->save_all(), &up.bytes_down);
    up.bytes_up = up.bytes_down;
  } else {
    received = channel.downlink(sliced->save_all(), &up.bytes_down);
    sliced->load_all(received);
  }

  // Budget-aware execution (mem subsystem): the slice usually fits, but a
  // tight enforced budget can still demand checkpointed training of it.
  fed::apply_budgeted_execution(sliced->spec(), 0, sliced->num_atoms(),
                                cfg_.batch_size, /*with_aux_head=*/false,
                                at_.adversarial && at_.pgd_steps > 0,
                                /*aux_params_loaded=*/0, *sliced,
                                engine().config().mem.device_mem_scale,
                                &up.work);

  nn::Sgd opt(sliced->parameters_range(0, sliced->num_atoms()),
              sliced->gradients_range(0, sliced->num_atoms()), round_sgd_);
  auto& batches = clients_.batches(task.client, cfg_.batch_size);
  for (std::int64_t it = 0; it < cfg_.local_iters; ++it)
    at_train_batch(*sliced, opt, batches.next(), at_, clients_.rng(task.client));

  if (!channel.lossless())
    sliced->load_all(
        channel.uplink(sliced->save_all(), &received, &up.bytes_up));

  up.weight = task.weight;
  up.work.atom_begin = 0;
  up.work.atom_end = env_->cost_spec.atoms.size();
  up.work.with_aux = false;
  up.work.pgd_steps = at_.pgd_steps;
  up.work.mem_scale = ratios_[task.slot];  // sub-model fits: no swapping
  up.work.flops_scale = ratios_[task.slot] * ratios_[task.slot];
  up.payload = Payload{plans_[task.slot], std::move(sliced)};
  return up;
}

void PartialTrainingFAT::apply_update(const fed::TaskSpec& /*task*/,
                                      fed::Upload&& up, fed::ApplyMode mode,
                                      float mix) {
  auto& p = std::any_cast<Payload&>(up.payload);
  if (mode == fed::ApplyMode::kBlend) {
    // Elements inside the slice land as (1-mix)*old + mix*new; elements the
    // client never trained cancel to their previous value on finalize.
    for (std::size_t a = 0; a < model_.num_atoms(); ++a) {
      acc_.add_dense_atom(model_, a, 1.0f - mix);
      acc_.add_sliced_atom(p.plan, *p.trained, a, mix);
    }
  } else {
    for (std::size_t a = 0; a < model_.num_atoms(); ++a)
      acc_.add_sliced_atom(p.plan, *p.trained, a, up.weight);
  }
}

void PartialTrainingFAT::finalize_round(std::int64_t /*t*/) {
  clients_.end_round();
  acc_.finalize_into(model_);
  acc_.reset();
}

}  // namespace fp::baselines
