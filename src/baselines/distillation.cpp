#include "baselines/distillation.hpp"

#include <algorithm>
#include <stdexcept>

#include "fed/budget_exec.hpp"
#include "tensor/ops.hpp"

namespace fp::baselines {

DistillationFAT::DistillationFAT(fed::FedEnv& env, DistillationConfig cfg)
    : FederatedAlgorithm(env, cfg.fl),
      init_rng_(cfg.fl.seed ^ 0xd15717),
      cfg2_(std::move(cfg)),
      public_rng_(cfg2_.fl.seed + 404) {
  if (cfg2_.family.empty())
    throw std::invalid_argument("DistillationFAT: empty model family");
  if (env.public_set.size() == 0)
    throw std::invalid_argument("DistillationFAT: environment has no public set");
  for (const auto& spec : cfg2_.family) {
    prototypes_.push_back(std::make_unique<models::BuiltModel>(spec, init_rng_));
    family_mem_.push_back(sys::module_train_mem_bytes(
        spec, 0, spec.atoms.size(), cfg2_.fl.batch_size, false));
  }
  per_arch_.resize(prototypes_.size());
}

std::size_t DistillationFAT::arch_for_mem(std::int64_t avail_mem_bytes) const {
  const double budget =
      static_cast<double>(avail_mem_bytes) * cfg2_.device_mem_scale;
  std::size_t best = 0;  // the smallest model is always allowed
  for (std::size_t a = 0; a < family_mem_.size(); ++a)
    if (static_cast<double>(family_mem_[a]) <= budget) best = a;
  return best;
}

void DistillationFAT::begin_dispatch(const std::vector<fed::TaskSpec>& tasks) {
  clients_.begin_round(tasks);
  at_ = LocalAtConfig{};
  at_.epsilon = cfg_.epsilon0;
  at_.pgd_steps = cfg2_.adversarial ? cfg_.pgd_steps : 0;
  at_.adversarial = cfg2_.adversarial;
  round_sgd_ = cfg_.sgd;
  if (!tasks.empty()) round_sgd_.lr = tasks.front().lr;

  // The snapshots survive across dispatch groups until finalize_round
  // changes the prototypes (async dropout/straggler refills reuse them).
  // A client only downloads the one architecture it trains, so wire sizes
  // are tracked per prototype.
  if (broadcast_.empty()) {
    broadcast_.reserve(prototypes_.size());
    broadcast_bytes_.assign(prototypes_.size(), 0);
    for (std::size_t a = 0; a < prototypes_.size(); ++a)
      broadcast_.push_back(engine().channel().downlink(
          prototypes_[a]->save_all(), &broadcast_bytes_[a]));
  }

  // Each client trains the largest architecture its memory affords.
  archs_.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    archs_[i] = tasks[i].has_device
                    ? arch_for_mem(tasks[i].device.avail_mem_bytes)
                    : prototypes_.size() - 1;
}

fed::Upload DistillationFAT::train_client(const fed::TaskSpec& task) {
  const std::size_t arch = archs_[task.slot];
  Rng build_rng(0);  // replica init is overwritten by the broadcast blob
  models::BuiltModel local(cfg2_.family[arch], build_rng);
  local.load_all(broadcast_[arch]);

  fed::Upload up;
  up.weight = task.weight;
  up.work.atom_begin = 0;
  up.work.atom_end = env_->cost_spec.atoms.size();
  up.work.with_aux = false;
  up.work.pgd_steps = at_.pgd_steps;
  const double scale = static_cast<double>(family_mem_[arch]) /
                       static_cast<double>(family_mem_.back());
  up.work.mem_scale = scale;    // the chosen model fits: no swap
  up.work.flops_scale = scale;  // smaller model, proportionally less compute
  // Budget-aware execution (mem subsystem) on the chosen family member.
  fed::apply_budgeted_execution(cfg2_.family[arch], 0, local.num_atoms(),
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

  up.bytes_down = broadcast_bytes_[arch];
  up.payload = Payload{arch, engine().channel().uplink(local.save_all(),
                                                       &broadcast_[arch],
                                                       &up.bytes_up)};
  return up;
}

void DistillationFAT::apply_update(const fed::TaskSpec& /*task*/,
                                   fed::Upload&& up, fed::ApplyMode mode,
                                   float mix) {
  auto& p = std::any_cast<Payload&>(up.payload);
  if (mode == fed::ApplyMode::kBlend) {
    per_arch_[p.arch].add(prototypes_[p.arch]->save_all(), 1.0f - mix);
    per_arch_[p.arch].add(p.blob, mix);
  } else {
    per_arch_[p.arch].add(p.blob, up.weight);
  }
}

void DistillationFAT::finalize_round(std::int64_t t) {
  clients_.end_round();
  for (std::size_t a = 0; a < prototypes_.size(); ++a) {
    if (per_arch_[a].empty()) continue;  // untouched prototypes keep values
    prototypes_[a]->load_all(per_arch_[a].average());
    per_arch_[a].reset();
  }
  distill(t);  // updates every student prototype
  broadcast_.clear();
}

void DistillationFAT::distill(std::int64_t t) {
  if (!public_batches_)
    public_batches_.emplace(env_->public_set, cfg2_.distill_batch, public_rng_);
  nn::SgdConfig sgd = cfg_.sgd;
  sgd.lr = std::min(cfg2_.distill_lr, lr_at(t));
  sgd.weight_decay = 0.0f;

  // FedET distills only into the large model; FedDF fuses every prototype.
  std::vector<std::size_t> students;
  if (cfg2_.ensemble_transfer) {
    students.push_back(prototypes_.size() - 1);
  } else {
    for (std::size_t a = 0; a < prototypes_.size(); ++a) students.push_back(a);
  }

  for (int it = 0; it < cfg2_.distill_iters; ++it) {
    const auto b = public_batches_->next();
    const std::int64_t n = b.x.dim(0);
    const std::int64_t c = env_->public_set.num_classes;
    // Teacher: mean (FedDF) or confidence-weighted mean (FedET) of the
    // prototypes' softmax outputs.
    Tensor target({n, c});
    Tensor weight_sum({n, 1});
    for (auto& proto : prototypes_) {
      const Tensor probs = softmax(proto->forward(b.x, /*train=*/false));
      for (std::int64_t r = 0; r < n; ++r) {
        float w = 1.0f;
        if (cfg2_.ensemble_transfer) {
          w = 0.0f;
          for (std::int64_t j = 0; j < c; ++j)
            w = std::max(w, probs[r * c + j]);  // teacher confidence
        }
        for (std::int64_t j = 0; j < c; ++j)
          target[r * c + j] += w * probs[r * c + j];
        weight_sum[r] += w;
      }
    }
    for (std::int64_t r = 0; r < n; ++r)
      for (std::int64_t j = 0; j < c; ++j) target[r * c + j] /= weight_sum[r];

    for (const std::size_t s : students) {
      auto& student = *prototypes_[s];
      nn::Sgd opt(student.parameters_range(0, student.num_atoms()),
                  student.gradients_range(0, student.num_atoms()), sgd);
      student.zero_grad_range(0, student.num_atoms());
      const Tensor logits = student.forward(b.x, /*train=*/true);
      const Tensor g = soft_cross_entropy_grad(logits, target);
      student.backward_range(0, student.num_atoms(), g);
      opt.step();
    }
  }
}

}  // namespace fp::baselines
