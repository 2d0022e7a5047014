#include "nn/lora.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/compute_mode.hpp"
#include "tensor/ops.hpp"

namespace fp::nn {

LoRaLinear::LoRaLinear(Tensor base_weight, Tensor base_bias, std::int64_t rank,
                       float alpha, Rng& rng)
    : in_(base_weight.ndim() == 2 ? base_weight.dim(1) : 0),
      out_(base_weight.ndim() == 2 ? base_weight.dim(0) : 0),
      rank_(rank),
      scale_(alpha / static_cast<float>(rank)),
      w0_(std::move(base_weight)),
      bias_(std::move(base_bias)),
      a_({rank, in_}),
      b_({out_, rank}),
      grad_a_({rank, in_}),
      grad_b_({out_, rank}) {
  if (in_ <= 0 || out_ <= 0)
    throw std::invalid_argument("LoRaLinear: base weight must be [out, in]");
  if (rank_ < 1 || rank_ > std::min(in_, out_))
    throw std::invalid_argument("LoRaLinear: rank out of range");
  if (bias_.numel() != 0 && bias_.numel() != out_)
    throw std::invalid_argument("LoRaLinear: bad bias");
  const float bound = std::sqrt(6.0f / static_cast<float>(in_));
  for (auto& v : a_.span()) v = rng.uniform(-bound, bound);
  // b_ stays zero: the adapter starts as an exact no-op.
}

Tensor LoRaLinear::forward(const Tensor& x, bool /*train*/) {
  if (x.ndim() < 2) throw std::invalid_argument("LoRaLinear: want [N, in]");
  const std::int64_t n = x.dim(0);
  if (x.numel() / n != in_)
    throw std::invalid_argument("LoRaLinear: feature mismatch");
  cached_input_ = x.reshape({n, in_});
  Tensor out({n, out_});
  // Base path: x W0^T (+ bias).
  gemm(false, true, n, out_, in_, 1.0f, cached_input_.data(), w0_.data(), 0.0f,
       out.data());
  if (bias_.numel() == out_) {
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < out_; ++j) out[i * out_ + j] += bias_[j];
  }
  // Adapter path: s * (x A^T) B^T.
  cached_ax_ = Tensor({n, rank_});
  gemm(false, true, n, rank_, in_, 1.0f, cached_input_.data(), a_.data(), 0.0f,
       cached_ax_.data());
  gemm(false, true, n, out_, rank_, scale_, cached_ax_.data(), b_.data(), 1.0f,
       out.data());
  return out;
}

Tensor LoRaLinear::backward(const Tensor& grad_out) {
  if (cached_input_.empty())
    throw std::logic_error("LoRaLinear::backward before forward");
  const std::int64_t n = cached_input_.dim(0);
  // Under an InputGradScope only grad_x (which needs g_ax) is wanted.
  const bool param_grads = !compute::input_grad_only();
  // grad_B += s * grad_out^T (x A^T)        : [out, r]
  if (param_grads)
    gemm(true, false, out_, rank_, n, scale_, grad_out.data(),
         cached_ax_.data(), 1.0f, grad_b_.data());
  // grad_(xA^T) = s * grad_out B            : [N, r]
  Tensor g_ax({n, rank_});
  gemm(false, false, n, rank_, out_, scale_, grad_out.data(), b_.data(), 0.0f,
       g_ax.data());
  // grad_A += g_ax^T x                      : [r, in]
  if (param_grads)
    gemm(true, false, rank_, in_, n, 1.0f, g_ax.data(), cached_input_.data(),
         1.0f, grad_a_.data());
  // grad_x = grad_out W0 + g_ax A           : [N, in]
  Tensor grad_in({n, in_});
  gemm(false, false, n, in_, out_, 1.0f, grad_out.data(), w0_.data(), 0.0f,
       grad_in.data());
  gemm(false, false, n, in_, rank_, 1.0f, g_ax.data(), a_.data(), 1.0f,
       grad_in.data());
  return grad_in;
}

Tensor LoRaLinear::merged_weight() const {
  Tensor merged = w0_;
  // merged += s * B A.
  gemm(false, false, out_, in_, rank_, scale_, b_.data(), a_.data(), 1.0f,
       merged.data());
  return merged;
}

}  // namespace fp::nn
