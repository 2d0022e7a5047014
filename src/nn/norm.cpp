#include "nn/norm.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/compute_mode.hpp"

namespace fp::nn {

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::ones({channels})),
      beta_({channels}),
      grad_gamma_({channels}),
      grad_beta_({channels}) {
  for (auto& bank : running_mean_) bank = Tensor::zeros({channels});
  for (auto& bank : running_var_) bank = Tensor::ones({channels});
}

void BatchNorm2d::use_bank(int bank) {
  if (bank != 0 && bank != 1) throw std::invalid_argument("BatchNorm2d: bad bank");
  bank_ = bank;
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  if (x.ndim() != 4 || x.dim(1) != channels_)
    throw std::invalid_argument("BatchNorm2d: bad input " + x.shape_str());
  const std::int64_t n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  cached_shape_ = x.shape();
  cached_train_ = train;
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_ = Tensor({c});
  Tensor out(x.shape());

  for (std::int64_t ch = 0; ch < c; ++ch) {
    double mean, var;
    if (train) {
      double s = 0.0, s2 = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* p = x.data() + (i * c + ch) * plane;
        for (std::int64_t j = 0; j < plane; ++j) {
          s += p[j];
          s2 += static_cast<double>(p[j]) * p[j];
        }
      }
      mean = s / count;
      var = s2 / count - mean * mean;
      if (var < 0.0) var = 0.0;  // numerical guard
      if (track_stats_) {
        // Update the active running-stat bank (unbiased variance, PyTorch-style).
        const double unbiased = count > 1 ? var * count / (count - 1) : var;
        auto& rm = running_mean_[bank_];
        auto& rv = running_var_[bank_];
        rm[ch] = (1.0f - momentum_) * rm[ch] + momentum_ * static_cast<float>(mean);
        rv[ch] =
            (1.0f - momentum_) * rv[ch] + momentum_ * static_cast<float>(unbiased);
      }
    } else {
      mean = running_mean_[bank_][ch];
      var = running_var_[bank_][ch];
    }
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
    cached_inv_std_[ch] = inv_std;
    const float g = gamma_[ch], b = beta_[ch], mu = static_cast<float>(mean);
    for (std::int64_t i = 0; i < n; ++i) {
      const float* p = x.data() + (i * c + ch) * plane;
      float* xh = cached_xhat_.data() + (i * c + ch) * plane;
      float* o = out.data() + (i * c + ch) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        xh[j] = (p[j] - mu) * inv_std;
        o[j] = g * xh[j] + b;
      }
    }
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (cached_xhat_.empty()) throw std::logic_error("BatchNorm2d::backward before forward");
  const std::int64_t n = cached_shape_[0], c = channels_, h = cached_shape_[2],
                     w = cached_shape_[3];
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  Tensor grad_in(cached_shape_);
  // Under an InputGradScope dgamma/dbeta are not accumulated, and eval mode
  // (dx = g * inv_std * go) needs neither channel sum.
  const bool param_grads = !compute::input_grad_only();
  const bool need_sums = param_grads || cached_train_;

  for (std::int64_t ch = 0; ch < c; ++ch) {
    // dgamma = sum(go * xhat), dbeta = sum(go).
    double sum_go = 0.0, sum_go_xhat = 0.0;
    if (need_sums)
      for (std::int64_t i = 0; i < n; ++i) {
        const float* go = grad_out.data() + (i * c + ch) * plane;
        const float* xh = cached_xhat_.data() + (i * c + ch) * plane;
        for (std::int64_t j = 0; j < plane; ++j) {
          sum_go += go[j];
          sum_go_xhat += static_cast<double>(go[j]) * xh[j];
        }
      }
    if (param_grads) {
      grad_gamma_[ch] += static_cast<float>(sum_go_xhat);
      grad_beta_[ch] += static_cast<float>(sum_go);
    }

    const float g = gamma_[ch];
    const float inv_std = cached_inv_std_[ch];
    if (cached_train_) {
      // Full batch-stat backward:
      // dx = g*inv_std/count * (count*go - sum_go - xhat*sum_go_xhat)
      const float k = g * inv_std / static_cast<float>(count);
      for (std::int64_t i = 0; i < n; ++i) {
        const float* go = grad_out.data() + (i * c + ch) * plane;
        const float* xh = cached_xhat_.data() + (i * c + ch) * plane;
        float* gi = grad_in.data() + (i * c + ch) * plane;
        for (std::int64_t j = 0; j < plane; ++j) {
          gi[j] = k * (static_cast<float>(count) * go[j] -
                       static_cast<float>(sum_go) -
                       xh[j] * static_cast<float>(sum_go_xhat));
        }
      }
    } else {
      // Eval mode is a per-channel affine map: dx = g * inv_std * go.
      const float k = g * inv_std;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* go = grad_out.data() + (i * c + ch) * plane;
        float* gi = grad_in.data() + (i * c + ch) * plane;
        for (std::int64_t j = 0; j < plane; ++j) gi[j] = k * go[j];
      }
    }
  }
  return grad_in;
}

}  // namespace fp::nn
