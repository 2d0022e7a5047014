#include "baselines/partial_training.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "fed/budget_exec.hpp"

namespace fp::baselines {

namespace {
/// FNV-1a over a slice plan's kept indices, each list prefixed by its
/// length: what a worker's redrawn plan must share with the root's.
std::uint64_t plan_fingerprint(const models::SlicePlan& plan) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_list = [&mix](const std::vector<std::int64_t>& v) {
    mix(static_cast<std::int64_t>(v.size()));
    for (const std::int64_t i : v) mix(i);
  };
  for (const models::AtomSlice& atom : plan.atoms)
    for (const auto* layers : {&atom.layers, &atom.shortcut})
      for (const models::LayerSlice& l : *layers) {
        mix_list(l.in);
        mix_list(l.out);
      }
  return h;
}
}  // namespace

PartialTrainingFAT::PartialTrainingFAT(fed::FedEnv& env, PartialTrainingConfig cfg)
    : FederatedAlgorithm(env, cfg.fl),
      init_rng_(cfg.fl.seed ^ 0x9a27),
      cfg2_(cfg),
      model_(cfg.model_spec, init_rng_),
      full_mem_bytes_(sys::module_train_mem_bytes(
          cfg.model_spec, 0, cfg.model_spec.atoms.size(), cfg.fl.batch_size,
          /*with_aux_head=*/false)),
      round_sgd_(cfg.fl.sgd),
      acc_(model_) {
  at_.epsilon = cfg_.epsilon0;
  at_.pgd_steps = cfg2_.adversarial ? cfg_.pgd_steps : 0;
  at_.adversarial = cfg2_.adversarial;
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
  // An empty dispatch keeps the previous state, as a reused snapshot does.
  if (tasks.empty()) return;
  round_ = tasks.front().round;
  round_sgd_.lr = tasks.front().lr;
  const std::size_t n = tasks.size();
  ratios_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    ratios_[i] = tasks[i].has_device
                     ? ratio_for_mem(tasks[i].device.avail_mem_bytes)
                     : 1.0;
  draw_plans();

  // The server ships each client only its slice, so the wire round-trip is
  // sized (and lossy-coded) on the slice, not the full network. The gathers
  // are independent; the downlinks stay on this thread in slot order, which
  // is the order a distributed root captures them in.
  broadcast_.assign(n, {});
  core::parallel_tasks(static_cast<std::int64_t>(n), [&](std::int64_t i) {
    const auto slot = static_cast<std::size_t>(i);
    broadcast_[slot] = models::gather_weights(plans_[slot], model_);
  });
  broadcast_bytes_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    broadcast_[i] = engine().channel().downlink(std::move(broadcast_[i]),
                                                &broadcast_bytes_[i]);
}

void PartialTrainingFAT::draw_plans() {
  // Slice plans consume the shared per-round RNG, so draw them sequentially
  // in slot order before the training fans out. The stream is reseeded once
  // per round and persists across dispatch groups of the same round, so
  // async single-client refills keep drawing fresh random masks instead of
  // repeating the round's first one.
  if (round_ != slice_rng_round_) {
    slice_rng_ = Rng(cfg_.seed + 31 * static_cast<std::uint64_t>(round_));
    slice_rng_round_ = round_;
  }
  plans_.clear();
  plans_.reserve(ratios_.size());
  for (const double ratio : ratios_)
    plans_.push_back(models::make_slice_plan(model_.spec(), ratio,
                                             cfg2_.scheme, round_, slice_rng_));
}

fed::Upload PartialTrainingFAT::train_client(const fed::TaskSpec& task) {
  const std::size_t slot = task.slot;
  models::BuiltModel sliced(plans_[slot].sliced_spec, broadcast_[slot]);

  fed::Upload up;
  up.bytes_down = broadcast_bytes_[slot];
  // Budget-aware execution (mem subsystem): the slice usually fits, but a
  // tight enforced budget can still demand checkpointed training of it.
  fed::apply_budgeted_execution(sliced.spec(), 0, sliced.num_atoms(),
                                cfg_.batch_size, /*with_aux_head=*/false,
                                at_.adversarial && at_.pgd_steps > 0,
                                /*aux_params_loaded=*/0, sliced,
                                engine().config().mem.device_mem_scale,
                                &up.work);

  nn::Sgd opt(sliced.parameters_range(0, sliced.num_atoms()),
              sliced.gradients_range(0, sliced.num_atoms()), round_sgd_);
  auto& batches = clients_.batches(task.client, cfg_.batch_size);
  for (std::int64_t it = 0; it < cfg_.local_iters; ++it)
    at_train_batch(sliced, opt, batches.next(), at_, clients_.rng(task.client));

  up.weight = task.weight;
  up.work.atom_begin = 0;
  up.work.atom_end = env_->cost_spec.atoms.size();
  up.work.with_aux = false;
  up.work.pgd_steps = at_.pgd_steps;
  up.work.mem_scale = ratios_[slot];  // sub-model fits: no swapping
  up.work.flops_scale = ratios_[slot] * ratios_[slot];
  // Delta codecs reference the slice both ends hold.
  up.payload = Payload{slot, plans_[slot],
                       engine().channel().uplink(sliced.save_all(),
                                                 broadcast_[slot],
                                                 &up.bytes_up)};
  return up;
}

void PartialTrainingFAT::net_state(comm::StateIO& io) {
  io(round_);
  io(round_sgd_.lr);
  std::uint64_t slots = ratios_.size();
  io(slots);
  if (io.reading()) {
    if (slots > static_cast<std::uint64_t>(cfg_.num_clients))
      throw std::runtime_error(name() + ": dispatch state for " +
                               std::to_string(slots) + " slots");
    ratios_.assign(slots, 0.0);
    broadcast_.assign(slots, {});
    broadcast_bytes_.assign(slots, 0);
  }
  std::vector<std::uint64_t> prints(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    if (!io.reading()) prints[i] = plan_fingerprint(plans_[i]);
    io(ratios_[i]);
    io.msg(broadcast_[i]);
    io(broadcast_bytes_[i]);
    io(prints[i]);
  }
  if (io.reading()) {
    // The root's plans, redrawn: a sync round has one dispatch, so its
    // slice stream starts fresh, and every group of the round redraws the
    // same plans from the round and the ratios. The root's fingerprints
    // check that they are the same.
    slice_rng_round_ = -1;
    draw_plans();
    for (std::size_t i = 0; i < slots; ++i)
      if (plan_fingerprint(plans_[i]) != prints[i])
        throw std::runtime_error(name() + ": slot " + std::to_string(i) +
                                 "'s redrawn slice plan for round " +
                                 std::to_string(round_) +
                                 " differs from the root's");
  }
}

void PartialTrainingFAT::net_upload(fed::Upload& up, comm::StateIO& io) {
  if (io.reading()) up.payload = Payload{};
  auto& p = std::any_cast<Payload&>(up.payload);
  io(p.slot);
  if (p.slot >= plans_.size())
    throw std::runtime_error(name() + ": upload for slot " +
                             std::to_string(p.slot) + " of " +
                             std::to_string(plans_.size()));
  if (io.reading()) p.plan = plans_[p.slot];
  io.msg(p.blob, broadcast_[p.slot]);
}

void PartialTrainingFAT::apply_update(const fed::TaskSpec& /*task*/,
                                      fed::Upload&& up, fed::ApplyMode mode,
                                      float mix) {
  auto& p = std::any_cast<Payload&>(up.payload);
  float weight = up.weight;
  if (mode == fed::ApplyMode::kBlend) {
    // Elements inside the slice land as (1-mix)*old + mix*new; elements the
    // client never trained cancel to their previous value on finalize.
    for (std::size_t a = 0; a < model_.num_atoms(); ++a)
      acc_.add_dense_atom_blob(a, model_.save_atom(a), 1.0f - mix);
    weight = mix;
  }
  acc_.add_sliced(p.plan, model_, p.blob, weight);
}

void PartialTrainingFAT::finalize_round(std::int64_t /*t*/) {
  clients_.end_round();
  acc_.finalize_into(model_);
  acc_.reset();
}

}  // namespace fp::baselines
