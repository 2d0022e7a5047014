// Adversarial attacks: FGSM, PGD-n (l_inf and l2), and AutoAttackLite.
//
// Attacks are expressed against a LossGradFn so the same machinery perturbs
// raw images (epsilon_0-ball around pixels) and intermediate cascade features
// (epsilon_{m-1}-ball around z_{m-1}, paper Fig. 4). The function computes
// the scalar loss and the gradient of that loss w.r.t. the input batch.
#pragma once

#include <functional>

#include "tensor/tensor.hpp"

namespace fp::attack {

/// Computes loss(x, y) and, if grad_x != nullptr, d loss / d x into *grad_x.
/// fgsm/pgd/apgd call it under a compute::InputGradScope, so layer backwards
/// inside it return d loss / d x and leave every parameter gradient as is.
using LossGradFn = std::function<float(
    const Tensor& x, const std::vector<std::int64_t>& y, Tensor* grad_x)>;

enum class Norm { kLinf, kL2 };

struct PgdConfig {
  float epsilon = 8.0f / 255.0f;
  float step_size = -1.0f;  ///< <0 selects 2.5 * eps / steps (standard heuristic)
  int steps = 10;
  Norm norm = Norm::kLinf;
  bool random_start = true;
  /// Clamp the perturbed input to a valid range (pixel space). Disable for
  /// intermediate-feature perturbations, which are unconstrained.
  bool clip = true;
  float clip_lo = 0.0f, clip_hi = 1.0f;

  float effective_step() const {
    return step_size > 0.0f ? step_size
                            : 2.5f * epsilon / static_cast<float>(steps);
  }
};

/// Single-step fast gradient sign method (l_inf) / normalized gradient (l2).
Tensor fgsm(const LossGradFn& fn, const Tensor& x,
            const std::vector<std::int64_t>& y, const PgdConfig& cfg);

/// Projected gradient descent (Madry et al. 2017): `steps` iterations of
/// gradient ascent on the loss, projected back to the epsilon-ball.
Tensor pgd(const LossGradFn& fn, const Tensor& x,
           const std::vector<std::int64_t>& y, const PgdConfig& cfg, Rng& rng);

/// APGD-style attack used inside AutoAttackLite: gradient ascent with
/// momentum and step-size halving when the objective stops improving.
Tensor apgd(const LossGradFn& fn, const Tensor& x,
            const std::vector<std::int64_t>& y, const PgdConfig& cfg, Rng& rng);

/// Projects `delta` onto the epsilon-ball of the configured norm (in place).
/// For l2, projection is per sample (leading dimension is the batch).
void project(Tensor& delta, const PgdConfig& cfg);

}  // namespace fp::attack
