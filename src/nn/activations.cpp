#include "nn/activations.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FP_ACT_X86 1
#endif

namespace fp::nn {

namespace {

/// m = in > 0 ? 1 : 0; out = in > 0 ? in : 0 (NaN and -0 map to +0).
void relu_fwd_scalar(const float* in, std::int64_t count, float* m, float* o) {
  for (std::int64_t i = 0; i < count; ++i) {
    const bool pos = in[i] > 0.0f;
    m[i] = pos ? 1.0f : 0.0f;
    o[i] = pos ? in[i] : 0.0f;
  }
}

/// gi = go * m: a multiply, not a select, so -0 and NaN gradients keep the
/// bits the product gives them.
void relu_bwd_scalar(const float* go, const float* m, std::int64_t count,
                     float* gi) {
  for (std::int64_t i = 0; i < count; ++i) gi[i] = go[i] * m[i];
}

#ifdef FP_ACT_X86
const bool kHasAvx512 = __builtin_cpu_supports("avx512f");

/// The lanes of a 16-float step with `left` elements still to go.
inline __mmask16 lanes_left(std::int64_t left) {
  return left >= 16 ? __mmask16(0xFFFF)
                    : static_cast<__mmask16>((1u << left) - 1u);
}

/// relu_fwd_scalar: one ordered compare per 16 lanes, then zero-masking
/// moves write the mask and the output.
__attribute__((target("avx512f"))) void relu_fwd_avx512(const float* in,
                                                        std::int64_t count,
                                                        float* m, float* o) {
  const __m512 zero = _mm512_setzero_ps(), one = _mm512_set1_ps(1.0f);
  for (std::int64_t i = 0; i < count; i += 16) {
    const __mmask16 lanes = lanes_left(count - i);
    const __m512 v = _mm512_maskz_loadu_ps(lanes, in + i);
    const __mmask16 pos = _mm512_cmp_ps_mask(v, zero, _CMP_GT_OQ);
    _mm512_mask_storeu_ps(m + i, lanes, _mm512_maskz_mov_ps(pos, one));
    _mm512_mask_storeu_ps(o + i, lanes, _mm512_maskz_mov_ps(pos, v));
  }
}

__attribute__((target("avx512f"))) void relu_bwd_avx512(const float* go,
                                                        const float* m,
                                                        std::int64_t count,
                                                        float* gi) {
  for (std::int64_t i = 0; i < count; i += 16) {
    const __mmask16 lanes = lanes_left(count - i);
    _mm512_mask_storeu_ps(gi + i, lanes,
                          _mm512_mul_ps(_mm512_maskz_loadu_ps(lanes, go + i),
                                        _mm512_maskz_loadu_ps(lanes, m + i)));
  }
}
#endif

}  // namespace

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  FP_TRACE_KERNEL("relu_fwd", "batch", x.ndim() ? x.dim(0) : 0);
  cached_mask_ = Tensor(x.shape(), Tensor::Uninit{});
  Tensor out(x.shape(), Tensor::Uninit{});
#ifdef FP_ACT_X86
  if (kHasAvx512) {
    relu_fwd_avx512(x.data(), x.numel(), cached_mask_.data(), out.data());
    return out;
  }
#endif
  relu_fwd_scalar(x.data(), x.numel(), cached_mask_.data(), out.data());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (cached_mask_.empty()) throw std::logic_error("ReLU::backward before forward");
  FP_TRACE_KERNEL("relu_bwd", "batch",
                  grad_out.ndim() ? grad_out.dim(0) : 0);
  if (!grad_out.same_shape(cached_mask_))
    throw std::invalid_argument("ReLU::backward: grad " + grad_out.shape_str() +
                                " vs input " + cached_mask_.shape_str());
  Tensor grad_in(grad_out.shape(), Tensor::Uninit{});
#ifdef FP_ACT_X86
  if (kHasAvx512) {
    relu_bwd_avx512(grad_out.data(), cached_mask_.data(), grad_out.numel(),
                    grad_in.data());
    return grad_in;
  }
#endif
  relu_bwd_scalar(grad_out.data(), cached_mask_.data(), grad_out.numel(),
                  grad_in.data());
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  cached_shape_ = x.shape();
  const std::int64_t n = x.dim(0);
  return x.reshape({n, x.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  if (cached_shape_.empty()) throw std::logic_error("Flatten::backward before forward");
  return grad_out.reshape(cached_shape_);
}

}  // namespace fp::nn
