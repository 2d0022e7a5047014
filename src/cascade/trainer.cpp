#include "cascade/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "mem/arena.hpp"
#include "tensor/ops.hpp"

namespace fp::cascade {

namespace {
std::vector<Tensor*> block_params(CascadeState& cascade, std::size_t abegin,
                                  std::size_t aend, nn::Sequential* aux) {
  auto params = cascade.model().parameters_range(abegin, aend);
  if (aux)
    for (auto* p : aux->parameters()) params.push_back(p);
  return params;
}

std::vector<Tensor*> block_grads(CascadeState& cascade, std::size_t abegin,
                                 std::size_t aend, nn::Sequential* aux) {
  auto grads = cascade.model().gradients_range(abegin, aend);
  if (aux)
    for (auto* g : aux->gradients()) grads.push_back(g);
  return grads;
}
}  // namespace

CascadeLocalTrainer::CascadeLocalTrainer(CascadeState& cascade,
                                         const LocalTrainConfig& cfg)
    : cascade_(&cascade),
      cfg_(cfg),
      atom_begin_(cascade.partition().modules.at(cfg.module_begin).begin),
      atom_end_(cascade.partition().modules.at(cfg.module_end - 1).end),
      aux_(cascade.aux_head(cfg.module_end - 1)),
      optimizer_(block_params(cascade, atom_begin_, atom_end_, aux_),
                 block_grads(cascade, atom_begin_, atom_end_, aux_), cfg.sgd) {
  if (cfg.module_begin >= cfg.module_end ||
      cfg.module_end > cascade.num_modules())
    throw std::invalid_argument("CascadeLocalTrainer: bad module range");
}

Tensor CascadeLocalTrainer::block_input(const Tensor& x) {
  if (atom_begin_ == 0) return x;
  // Frozen preceding modules run in eval mode (they are fixed, w*_m). Under
  // a client memory scope their caches are released as the forward walks
  // (there is never a backward through the prefix), so the frozen prefix
  // contributes only a couple of flowing activations to the measured peak.
  // This is the cascade's inference-only hot path: it honours the configured
  // compute mode (int8 / Winograd), while the trained block stays fp32.
  const compute::InferenceScope scope(cfg_.compute);
  if (mem::scope_active())
    return cascade_->model().forward_range_nocache(0, atom_begin_, x,
                                                   /*train=*/false);
  return cascade_->model().forward_range(0, atom_begin_, x, /*train=*/false);
}

attack::PgdConfig CascadeLocalTrainer::attack_config() const {
  attack::PgdConfig a;
  a.epsilon = cfg_.eps_in;
  a.steps = cfg_.pgd_steps;
  if (atom_begin_ == 0) {
    a.norm = attack::Norm::kLinf;  // image space: l_inf ball, valid pixels
    a.clip = true;
  } else {
    a.norm = attack::Norm::kL2;  // feature space: l2 ball, unconstrained
    a.clip = false;
  }
  return a;
}

float CascadeLocalTrainer::loss_grad(const Tensor& z_in,
                                     const std::vector<std::int64_t>& y,
                                     Tensor* grad_in, bool train_mode,
                                     bool track_stats) {
  auto& model = cascade_->model();
  model.set_bn_tracking(track_stats);
  const Tensor z_out = model.forward_range(atom_begin_, atom_end_, z_in, train_mode);
  const std::int64_t batch = z_out.dim(0);
  float loss;
  Tensor grad_z;
  if (aux_) {
    const Tensor logits = aux_->forward(z_out, train_mode);
    loss = cross_entropy(logits, y);
    // Strong convexity regularizer: mu/2 * mean_i ||z_i||^2 (Eq. 9).
    const float reg = 0.5f * cfg_.mu * z_out.dot(z_out) /
                      static_cast<float>(batch);
    loss += reg;
    if (grad_in) {
      grad_z = aux_->backward(cross_entropy_grad(logits, y));
      grad_z.add_scaled_(z_out, cfg_.mu / static_cast<float>(batch));
    }
  } else {
    loss = cross_entropy(z_out, y);
    if (grad_in) grad_z = cross_entropy_grad(z_out, y);
  }
  if (grad_in)
    *grad_in = cascade_->model().backward_range(atom_begin_, atom_end_, grad_z);
  model.set_bn_tracking(true);
  return loss;
}

float CascadeLocalTrainer::train_batch(const data::Batch& batch, Rng& rng) {
  const Tensor z_in = block_input(batch.x);
  Tensor z_train = z_in;
  if (cfg_.adversarial && cfg_.eps_in > 0.0f && cfg_.pgd_steps > 0) {
    // Attack passes run with batch statistics but frozen running stats; pgd
    // runs them input-gradient-only, so no parameter gradient is touched.
    auto fn = [this](const Tensor& z, const std::vector<std::int64_t>& yy,
                     Tensor* g) {
      return loss_grad(z, yy, g, /*train_mode=*/true, /*track_stats=*/false);
    };
    z_train = attack::pgd(fn, z_in, batch.y, attack_config(), rng);
  }
  // Final update pass.
  cascade_->model().zero_grad_range(atom_begin_, atom_end_);
  if (aux_) aux_->zero_grad();
  Tensor unused;
  const float loss = loss_grad(z_train, batch.y, &unused, /*train_mode=*/true,
                               /*track_stats=*/true);
  optimizer_.step();
  return loss;
}

CascadeLocalTrainer::DzStats CascadeLocalTrainer::measure_output_perturbation(
    const data::Batch& batch, Rng& rng) {
  const Tensor z_in = block_input(batch.x);
  auto fn = [this](const Tensor& z, const std::vector<std::int64_t>& yy,
                   Tensor* g) {
    return loss_grad(z, yy, g, /*train_mode=*/false, /*track_stats=*/false);
  };
  const Tensor z_adv = attack::pgd(fn, z_in, batch.y, attack_config(), rng);
  auto& model = cascade_->model();
  const Tensor out_clean =
      model.forward_range(atom_begin_, atom_end_, z_in, /*train=*/false);
  const Tensor out_adv =
      model.forward_range(atom_begin_, atom_end_, z_adv, /*train=*/false);
  const Tensor dz = out_adv.sub(out_clean);
  const auto norms = dz.row_l2_norms();
  DzStats stats;
  stats.dim = dz.numel() / dz.dim(0);
  for (const auto n : norms) {
    stats.mean_l2 += n;
    stats.max_l2 = std::max<double>(stats.max_l2, n);
  }
  stats.mean_l2 /= static_cast<double>(norms.size());
  stats.mean_per_dim =
      stats.mean_l2 / std::sqrt(static_cast<double>(std::max<std::int64_t>(1, stats.dim)));
  return stats;
}

namespace {
/// The prefix ending at module m as a shard network; `keep` holds a replica
/// alive.
attack::ShardNet prefix_net(CascadeState& cascade, std::size_t m,
                            std::shared_ptr<void> keep) {
  return {[&cascade, m, keep = std::move(keep)](const Tensor& x) {
            return cascade.prefix_logits(m, x, /*train=*/false);
          },
          [&cascade, m](const Tensor& grad_logits) {
            return cascade.prefix_backward(m, 0, grad_logits);
          }};
}
}  // namespace

attack::ShardedNet shard_prefix(CascadeState& cascade, std::size_t m,
                                std::size_t shards) {
  struct Replica {
    std::unique_ptr<models::BuiltModel> model;
    std::optional<CascadeState> cascade;
  };
  std::vector<attack::ShardNet> nets{prefix_net(cascade, m, nullptr)};
  const nn::ParamBlob aux = cascade.save_aux(m);
  for (auto& model :
       attack::eval_replicas(cascade.model(), shards > 1 ? shards - 1 : 0)) {
    auto replica = std::make_shared<Replica>();
    replica->model = std::move(model);
    Rng build_rng(0);  // aux-head init is overwritten below
    replica->cascade.emplace(*replica->model, cascade.partition(), build_rng);
    replica->cascade->load_aux(m, aux);
    CascadeState& ref = *replica->cascade;
    nets.push_back(prefix_net(ref, m, std::move(replica)));
  }
  return attack::ShardedNet(std::move(nets));
}

PrefixAccuracy evaluate_prefix(CascadeState& cascade, std::size_t m,
                               const data::Dataset& dataset,
                               const PrefixEvalConfig& cfg) {
  Rng rng(cfg.seed);
  const std::int64_t n = cfg.max_samples > 0
                             ? std::min(cfg.max_samples, dataset.size())
                             : dataset.size();
  attack::PgdConfig a;
  a.epsilon = cfg.epsilon0;
  a.steps = cfg.pgd_steps;
  // One replica set for this call, freed on return. The classification
  // forwards run under the configured compute mode; the attack stays fp32.
  const attack::ShardedNet net =
      shard_prefix(cascade, m, attack::eval_shards(std::min(cfg.batch_size, n)));
  const auto fn = net.lossgrad(cross_entropy, cross_entropy_grad);
  std::int64_t clean_ok = 0, adv_ok = 0;
  for (std::int64_t start = 0; start < n; start += cfg.batch_size) {
    const auto b =
        data::take_batch(dataset, start, std::min(cfg.batch_size, n - start));
    const auto clean_pred = net.predict(b.x, cfg.compute);
    const Tensor x_adv = attack::pgd(fn, b.x, b.y, a, rng);
    const auto adv_pred = net.predict(x_adv, cfg.compute);
    for (std::size_t i = 0; i < clean_pred.size(); ++i) {
      clean_ok += clean_pred[i] == b.y[i];
      adv_ok += adv_pred[i] == b.y[i];
    }
  }
  return {static_cast<double>(clean_ok) / static_cast<double>(n),
          static_cast<double>(adv_ok) / static_cast<double>(n)};
}

}  // namespace fp::cascade
