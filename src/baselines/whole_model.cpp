#include "baselines/whole_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "fed/budget_exec.hpp"
#include "tensor/ops.hpp"

namespace fp::baselines {

namespace {

bool distills(WholeModelRule rule) {
  return rule == WholeModelRule::kFedDf || rule == WholeModelRule::kFedEt;
}

/// Weight-init stream salt, one per method.
std::uint64_t init_salt(WholeModelRule rule) {
  switch (rule) {
    case WholeModelRule::kJfat: return 0x1fa7;
    case WholeModelRule::kFedRbn: return 0xb7123;
    default: return 0xd15717;
  }
}

}  // namespace

WholeModelFAT::WholeModelFAT(fed::FedEnv& env, WholeModelConfig cfg)
    : FederatedAlgorithm(env, cfg.fl),
      wcfg_(std::move(cfg)),
      init_rng_(wcfg_.fl.seed ^ init_salt(wcfg_.rule)),
      public_rng_(wcfg_.fl.seed + 404),
      round_sgd_(cfg_.sgd) {
  if (wcfg_.family.empty())
    throw std::invalid_argument(name() + ": empty model family");
  if (distills(wcfg_.rule) && env.public_set.size() == 0)
    throw std::invalid_argument(name() + ": environment has no public set");
  for (const auto& spec : wcfg_.family) {
    family_.push_back(std::make_unique<models::BuiltModel>(spec, init_rng_));
    family_mem_.push_back(sys::module_train_mem_bytes(
        spec, 0, spec.atoms.size(), cfg_.batch_size, false));
  }
  averagers_.resize(family_.size());
}

std::string WholeModelFAT::name() const {
  switch (wcfg_.rule) {
    case WholeModelRule::kJfat: return wcfg_.adversarial ? "jFAT" : "FedAvg";
    case WholeModelRule::kFedRbn: return "FedRBN";
    case WholeModelRule::kFedDf: return "FedDF-AT";
    case WholeModelRule::kFedEt: return "FedET-AT";
  }
  return "";
}

bool WholeModelFAT::fits(std::size_t arch, std::int64_t avail_mem_bytes) const {
  return static_cast<double>(family_mem_[arch]) <=
         static_cast<double>(avail_mem_bytes) * wcfg_.device_mem_scale;
}

std::size_t WholeModelFAT::arch_for_mem(std::int64_t avail_mem_bytes) const {
  std::size_t best = 0;
  for (std::size_t a = 0; a < family_mem_.size(); ++a)
    if (fits(a, avail_mem_bytes)) best = a;
  return best;
}

WholeModelFAT::ClientPlan WholeModelFAT::plan(const fed::TaskSpec& task) const {
  ClientPlan p;
  p.arch = task.has_device ? arch_for_mem(task.device.avail_mem_bytes)
                           : family_.size() - 1;
  // FedRBN trains standard, clean bank only, where the model does not fit.
  const bool at = wcfg_.adversarial &&
                  (wcfg_.rule != WholeModelRule::kFedRbn || !task.has_device ||
                   fits(p.arch, task.device.avail_mem_bytes));
  p.at.epsilon = cfg_.epsilon0;
  p.at.pgd_steps = at ? cfg_.pgd_steps : 0;
  p.at.adversarial = at;
  p.at.dual_bn = at && wcfg_.rule == WholeModelRule::kFedRbn;
  return p;
}

void WholeModelFAT::begin_dispatch(const std::vector<fed::TaskSpec>& tasks) {
  clients_.begin_round(tasks);
  // The snapshots survive across dispatch groups until finalize_round
  // changes the family (async dropout/straggler refills reuse them). Clients
  // train from the blobs as the wire codec delivers them; a client only
  // downloads the architecture it trains, so wire sizes are per architecture.
  if (broadcast_.empty()) {
    broadcast_bytes_.assign(family_.size(), 0);
    for (std::size_t a = 0; a < family_.size(); ++a)
      broadcast_.push_back(engine().channel().downlink(
          family_[a]->save_all(), &broadcast_bytes_[a]));
  }
  round_sgd_.lr = tasks.empty() ? cfg_.sgd.lr : tasks.front().lr;
  for (const auto& task : tasks) {
    ++selections_;
    at_selections_ += plan(task).at.adversarial;
  }
}

fed::Upload WholeModelFAT::train_client(const fed::TaskSpec& task) {
  const ClientPlan p = plan(task);
  const sys::ModelSpec& spec = wcfg_.family[p.arch];
  models::BuiltModel local(spec, broadcast_[p.arch]);

  fed::Upload up;
  up.weight = task.weight;
  up.work.atom_begin = 0;
  up.work.atom_end = env_->cost_spec.atoms.size();
  up.work.with_aux = false;
  up.work.pgd_steps = p.at.pgd_steps;
  // A smaller member is priced as the paper-shape model scaled by its share
  // of the largest member's memory and compute.
  const double scale = static_cast<double>(family_mem_[p.arch]) /
                       static_cast<double>(family_mem_.back());
  up.work.mem_scale = scale;
  up.work.flops_scale = scale;
  // Budget-aware execution (mem subsystem): whole-model training is what
  // overruns client memory, so plan the step's peak and checkpoint when the
  // bound budget demands it. The work is priced on the paper-shape cost
  // spec, hence the device_mem_scale mapping.
  fed::apply_budgeted_execution(spec, 0, local.num_atoms(), cfg_.batch_size,
                                /*with_aux_head=*/false,
                                p.at.adversarial && p.at.pgd_steps > 0,
                                /*aux_params_loaded=*/0, local,
                                engine().config().mem.device_mem_scale,
                                &up.work);

  nn::Sgd opt(local.parameters_range(0, local.num_atoms()),
              local.gradients_range(0, local.num_atoms()), round_sgd_);
  auto& batches = clients_.batches(task.client, cfg_.batch_size);
  for (std::int64_t it = 0; it < cfg_.local_iters; ++it)
    at_train_batch(local, opt, batches.next(), p.at, clients_.rng(task.client));

  up.bytes_down = broadcast_bytes_[p.arch];
  // Uplink through the engine's channel: the server aggregates the update as
  // the codec decodes it (delta codecs reference the broadcast both ends hold).
  up.payload = Payload{p.arch, engine().channel().uplink(local.save_all(),
                                                         broadcast_[p.arch],
                                                         &up.bytes_up)};
  return up;
}

void WholeModelFAT::net_state(comm::StateIO& io) {
  if (io.reading()) {
    broadcast_.assign(family_.size(), {});
    broadcast_bytes_.assign(family_.size(), 0);
  }
  for (std::size_t a = 0; a < family_.size(); ++a) {
    io.msg(broadcast_[a]);
    io(broadcast_bytes_[a]);
  }
  io(round_sgd_.lr);
}

void WholeModelFAT::net_upload(fed::Upload& up, comm::StateIO& io) {
  if (io.reading()) up.payload = Payload{};
  auto& p = std::any_cast<Payload&>(up.payload);
  io(p.arch);
  if (p.arch >= broadcast_.size())
    throw std::runtime_error(name() + ": upload for architecture " +
                             std::to_string(p.arch) + " of " +
                             std::to_string(broadcast_.size()));
  io.msg(p.blob, broadcast_[p.arch]);
}

void WholeModelFAT::apply_update(const fed::TaskSpec& /*task*/,
                                 fed::Upload&& up, fed::ApplyMode mode,
                                 float mix) {
  auto& p = std::any_cast<Payload&>(up.payload);
  fed::BlobAverager& avg = averagers_[p.arch];
  if (mode == fed::ApplyMode::kBlend) {
    avg.add(family_[p.arch]->save_all(), 1.0f - mix);
    avg.add(p.blob, mix);
  } else {
    avg.add(p.blob, up.weight);
  }
}

void WholeModelFAT::finalize_round(std::int64_t t) {
  clients_.end_round();
  bool changed = false;
  for (std::size_t a = 0; a < family_.size(); ++a) {
    if (averagers_[a].empty()) continue;  // untouched members keep values
    family_[a]->load_all(averagers_[a].average());
    averagers_[a].reset();
    changed = true;
  }
  if (distills(wcfg_.rule)) {
    distill(t);  // updates every student member
    changed = true;
  }
  if (changed) broadcast_.clear();  // next dispatch re-snapshots
}

void WholeModelFAT::distill(std::int64_t t) {
  if (!public_batches_)
    public_batches_.emplace(env_->public_set, wcfg_.distill_batch, public_rng_);
  nn::SgdConfig sgd = cfg_.sgd;
  sgd.lr = std::min(wcfg_.distill_lr, lr_at(t));
  sgd.weight_decay = 0.0f;

  // FedET distills only into the large model; FedDF fuses every member.
  const bool transfer = wcfg_.rule == WholeModelRule::kFedEt;
  const std::size_t first_student = transfer ? family_.size() - 1 : 0;

  for (int it = 0; it < wcfg_.distill_iters; ++it) {
    const auto b = public_batches_->next();
    const std::int64_t n = b.x.dim(0);
    const std::int64_t c = env_->public_set.num_classes;
    // Teacher: mean (FedDF) or confidence-weighted mean (FedET) of the
    // members' softmax outputs.
    Tensor target({n, c});
    Tensor weight_sum({n, 1});
    for (auto& member : family_) {
      const Tensor probs = softmax(member->forward(b.x, /*train=*/false));
      for (std::int64_t r = 0; r < n; ++r) {
        float w = 1.0f;
        if (transfer) {
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

    for (std::size_t s = first_student; s < family_.size(); ++s) {
      auto& student = *family_[s];
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
