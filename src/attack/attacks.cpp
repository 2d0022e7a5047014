#include "attack/attacks.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/compute_mode.hpp"

namespace fp::attack {

void project(Tensor& delta, const PgdConfig& cfg) {
  if (cfg.norm == Norm::kLinf) {
    delta.clamp_(-cfg.epsilon, cfg.epsilon);
    return;
  }
  // Per-sample l2 projection.
  const auto norms = delta.row_l2_norms();
  std::vector<float> factors(norms.size(), 1.0f);
  for (std::size_t i = 0; i < norms.size(); ++i)
    if (norms[i] > cfg.epsilon && norms[i] > 0.0f)
      factors[i] = cfg.epsilon / norms[i];
  delta.scale_rows_(factors);
}

namespace {

void clip_to_valid(Tensor& x_adv, const Tensor& x, const PgdConfig& cfg) {
  if (!cfg.clip) return;
  (void)x;
  x_adv.clamp_(cfg.clip_lo, cfg.clip_hi);
}

/// Ascent direction from a raw gradient: sign for l_inf, per-sample
/// normalized gradient for l2.
Tensor ascent_direction(Tensor grad, const PgdConfig& cfg) {
  if (cfg.norm == Norm::kLinf) {
    grad.sign_();
    return grad;
  }
  const auto norms = grad.row_l2_norms();
  std::vector<float> factors(norms.size());
  for (std::size_t i = 0; i < norms.size(); ++i)
    factors[i] = norms[i] > 1e-12f ? 1.0f / norms[i] : 0.0f;
  grad.scale_rows_(factors);
  return grad;
}

Tensor random_start_delta(const Tensor& x, const PgdConfig& cfg, Rng& rng) {
  if (cfg.norm == Norm::kLinf)
    return Tensor::rand_uniform(x.shape(), rng, -cfg.epsilon, cfg.epsilon);
  Tensor delta = Tensor::randn(x.shape(), rng);
  const auto norms = delta.row_l2_norms();
  std::vector<float> factors(norms.size());
  for (std::size_t i = 0; i < norms.size(); ++i) {
    const float target = cfg.epsilon * rng.uniform(0.0f, 1.0f);
    factors[i] = norms[i] > 1e-12f ? target / norms[i] : 0.0f;
  }
  delta.scale_rows_(factors);
  return delta;
}

}  // namespace

Tensor fgsm(const LossGradFn& fn, const Tensor& x,
            const std::vector<std::int64_t>& y, const PgdConfig& cfg) {
  const compute::InputGradScope scope;
  Tensor grad(x.shape());
  fn(x, y, &grad);
  Tensor x_adv = x;
  x_adv.add_scaled_(ascent_direction(std::move(grad), cfg), cfg.epsilon);
  clip_to_valid(x_adv, x, cfg);
  return x_adv;
}

Tensor pgd(const LossGradFn& fn, const Tensor& x,
           const std::vector<std::int64_t>& y, const PgdConfig& cfg, Rng& rng) {
  const compute::InputGradScope scope;
  Tensor delta = cfg.random_start ? random_start_delta(x, cfg, rng)
                                  : Tensor::zeros(x.shape());
  project(delta, cfg);
  const float alpha = cfg.effective_step();
  for (int step = 0; step < cfg.steps; ++step) {
    Tensor x_adv = x.add(delta);
    clip_to_valid(x_adv, x, cfg);
    Tensor grad(x.shape());
    fn(x_adv, y, &grad);
    delta.add_scaled_(ascent_direction(std::move(grad), cfg), alpha);
    project(delta, cfg);
  }
  Tensor x_adv = x.add(delta);
  clip_to_valid(x_adv, x, cfg);
  return x_adv;
}

Tensor apgd(const LossGradFn& fn, const Tensor& x,
            const std::vector<std::int64_t>& y, const PgdConfig& cfg, Rng& rng) {
  const compute::InputGradScope scope;
  Tensor delta = cfg.random_start ? random_start_delta(x, cfg, rng)
                                  : Tensor::zeros(x.shape());
  project(delta, cfg);
  float alpha = 2.0f * cfg.epsilon;  // APGD starts aggressive, then halves
  Tensor momentum = Tensor::zeros(x.shape());
  Tensor best_delta = delta;
  float best_loss = -std::numeric_limits<float>::infinity();
  float prev_loss = -std::numeric_limits<float>::infinity();
  int stall = 0;
  for (int step = 0; step < cfg.steps; ++step) {
    Tensor x_adv = x.add(delta);
    clip_to_valid(x_adv, x, cfg);
    Tensor grad(x.shape());
    const float loss = fn(x_adv, y, &grad);
    if (loss > best_loss) {
      best_loss = loss;
      best_delta = delta;
    }
    if (loss <= prev_loss) {
      if (++stall >= 2) {  // halve the step and restart from the best point
        alpha *= 0.5f;
        delta = best_delta;
        momentum.zero_();
        stall = 0;
      }
    } else {
      stall = 0;
    }
    prev_loss = loss;
    // Momentum ascent.
    momentum.scale_(0.75f).add_scaled_(ascent_direction(std::move(grad), cfg),
                                       0.25f);
    delta.add_scaled_(momentum, alpha);
    project(delta, cfg);
  }
  Tensor x_adv = x.add(best_delta);
  clip_to_valid(x_adv, x, cfg);
  return x_adv;
}

}  // namespace fp::attack
