#include "nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "core/parallel.hpp"
#include "tensor/compute_mode.hpp"
#include "tensor/ops.hpp"

namespace fp::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_({out_features, in_features}),
      bias_({out_features}),
      grad_weight_({out_features, in_features}),
      grad_bias_({out_features}) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_features));
  for (auto& v : weight_.span()) v = rng.uniform(-bound, bound);
}

Tensor Linear::forward(const Tensor& x, bool /*train*/) {
  if (x.ndim() < 2) throw std::invalid_argument("Linear: input must be >= 2-D");
  const std::int64_t n = x.dim(0);
  const std::int64_t features = x.numel() / n;
  if (features != in_features_)
    throw std::invalid_argument("Linear: feature mismatch, got " + x.shape_str());
  Tensor out({n, out_features_});
  if (compute::int8_active()) {
    // Inference-only quantized path: no activation caching (a backward after
    // this forward must fail loudly, not differentiate stale state).
    cached_input_ = Tensor();
    cached_input_shape_.clear();
    const Tensor x2 = x.reshape({n, in_features_});
    if (qgemm_profitable(in_features_)) {
      const std::uint64_t epoch = compute::weights_epoch();
      if (qweight_epoch_ != epoch || qweight_.rows != out_features_) {
        const std::uint64_t hash = content_hash_fnv1a(
            weight_.data(),
            static_cast<std::size_t>(weight_.numel()) * sizeof(float));
        if (qweight_hash_ != hash || qweight_.rows != out_features_) {
          quantize_rows_int8(weight_.data(), out_features_, in_features_,
                             in_features_, qweight_);
          qweight_hash_ = hash;
        }
        qweight_epoch_ = epoch;
      }
      thread_local QuantizedMat qacts;
      quantize_rows_int8(x2.data(), n, in_features_, in_features_, qacts);
      // out = x * W^T: both packs are K-contiguous rows, the qgemm shape.
      qgemm_nt(n, out_features_, qacts, qweight_, out.data(), out_features_);
    } else {
      // Too shallow to amortize quantize-on-pack: fp32 GEMM, still no cache.
      gemm(false, true, n, out_features_, in_features_, 1.0f, x2.data(),
           weight_.data(), 0.0f, out.data());
    }
  } else {
    cached_input_shape_ = x.shape();
    cached_input_ = x.reshape({n, in_features_});
    // out = x * W^T
    gemm(false, true, n, out_features_, in_features_, 1.0f, cached_input_.data(),
         weight_.data(), 0.0f, out.data());
  }
  if (has_bias_) {
    float* od = out.data();
    const float* bias = bias_.data();
    core::parallel_for(0, n, 64, [&](std::int64_t b0, std::int64_t b1) {
      for (std::int64_t i = b0; i < b1; ++i)
        for (std::int64_t j = 0; j < out_features_; ++j)
          od[i * out_features_ + j] += bias[j];
    });
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::logic_error("Linear::backward before forward");
  const std::int64_t n = cached_input_.dim(0);
  // Under an InputGradScope only grad_x is wanted (read on this thread).
  const bool param_grads = !compute::input_grad_only();
  // grad_W += grad_out^T * x : [out, in] = [N, out]^T [N, in]
  if (param_grads)
    gemm(true, false, out_features_, in_features_, n, 1.0f, grad_out.data(),
         cached_input_.data(), 1.0f, grad_weight_.data());
  if (param_grads && has_bias_) {
    // Per-output-feature reduction with samples in fixed order: bit-identical
    // for any thread count.
    const float* god = grad_out.data();
    float* gb = grad_bias_.data();
    core::parallel_for(0, out_features_, 64, [&](std::int64_t j0, std::int64_t j1) {
      for (std::int64_t j = j0; j < j1; ++j) {
        float s = gb[j];
        for (std::int64_t i = 0; i < n; ++i) s += god[i * out_features_ + j];
        gb[j] = s;
      }
    });
  }
  // grad_x = grad_out * W : [N, in]
  Tensor grad_in({n, in_features_});
  gemm(false, false, n, in_features_, out_features_, 1.0f, grad_out.data(),
       weight_.data(), 0.0f, grad_in.data());
  return grad_in.reshape(cached_input_shape_);
}

std::vector<Tensor*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::vector<Tensor*> Linear::gradients() {
  if (has_bias_) return {&grad_weight_, &grad_bias_};
  return {&grad_weight_};
}

}  // namespace fp::nn
