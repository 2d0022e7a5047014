#include "nn/pool.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FP_POOL_X86 1
#endif

namespace fp::nn {

namespace {

#ifdef FP_POOL_X86
const bool kHasAvx512 = __builtin_cpu_supports("avx512f");

/// One plane of the 2x2, stride-2 pool with ow <= 16, a row of outputs per
/// step: the two input rows' first 2*ow floats split into even and odd
/// columns give the four taps, compared in the scalar's (ky, kx) order with
/// a strict ordered >, so the first maximum wins and NaN never does. The
/// index starts at the window's first tap, as in the scalar loop.
__attribute__((target("avx512f"))) void pool2x2_plane_avx512(
    const float* plane, std::int64_t w, std::int64_t oh, std::int64_t ow,
    std::int64_t base, float* out, std::int64_t* argmax) {
  const __m512i even = _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14,
                                        12, 10, 8, 6, 4, 2, 0);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i odd = _mm512_add_epi32(even, one);
  const std::int64_t in_cols = 2 * ow;
  const __mmask16 lo = static_cast<__mmask16>(
      (1u << (in_cols < 16 ? in_cols : 16)) - 1u);
  const __mmask16 hi = static_cast<__mmask16>(
      (1u << (in_cols > 16 ? in_cols - 16 : 0)) - 1u);
  const __mmask16 cols = static_cast<__mmask16>((1u << ow) - 1u);
  const __mmask8 cols_lo = static_cast<__mmask8>(cols & 0xFF);
  const __mmask8 cols_hi = static_cast<__mmask8>(cols >> 8);
  const __m512i vw = _mm512_set1_epi32(static_cast<int>(w));
  const __m512i vbase = _mm512_set1_epi64(base);
  const __m512 neg_inf =
      _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  for (std::int64_t y = 0; y < oh; ++y) {
    const float* r0 = plane + 2 * y * w;
    const float* r1 = r0 + w;
    const __m512 a_lo = _mm512_maskz_loadu_ps(lo, r0);
    const __m512 a_hi = _mm512_maskz_loadu_ps(hi, r0 + 16);
    const __m512 b_lo = _mm512_maskz_loadu_ps(lo, r1);
    const __m512 b_hi = _mm512_maskz_loadu_ps(hi, r1 + 16);
    const __m512 taps[4] = {_mm512_permutex2var_ps(a_lo, even, a_hi),
                            _mm512_permutex2var_ps(a_lo, odd, a_hi),
                            _mm512_permutex2var_ps(b_lo, even, b_hi),
                            _mm512_permutex2var_ps(b_lo, odd, b_hi)};
    const __m512i first =
        _mm512_add_epi32(even, _mm512_set1_epi32(static_cast<int>(2 * y * w)));
    const __m512i below = _mm512_add_epi32(first, vw);
    const __m512i idx[4] = {first, _mm512_add_epi32(first, one), below,
                            _mm512_add_epi32(below, one)};
    __m512 best = neg_inf;
    __m512i best_idx = first;
    for (int t = 0; t < 4; ++t) {
      const __mmask16 gt = _mm512_cmp_ps_mask(taps[t], best, _CMP_GT_OQ);
      best = _mm512_mask_mov_ps(best, gt, taps[t]);
      best_idx = _mm512_mask_mov_epi32(best_idx, gt, idx[t]);
    }
    _mm512_mask_storeu_ps(out + y * ow, cols, best);
    std::int64_t* am = argmax + y * ow;
    _mm512_mask_storeu_epi64(
        am, cols_lo,
        _mm512_add_epi64(vbase, _mm512_cvtepi32_epi64(
                                    _mm512_castsi512_si256(best_idx))));
    if (cols_hi)
      _mm512_mask_storeu_epi64(
          am + 8, cols_hi,
          _mm512_add_epi64(vbase, _mm512_cvtepi32_epi64(
                                      _mm512_extracti64x4_epi64(best_idx, 1))));
  }
}
#endif

}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride < 0 ? kernel : stride) {}

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  FP_TRACE_KERNEL("maxpool_fwd", "batch", x.ndim() == 4 ? x.dim(0) : 0);
  if (x.ndim() != 4) throw std::invalid_argument("MaxPool2d: want NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h - kernel_) / stride_ + 1;
  const std::int64_t ow = (w - kernel_) / stride_ + 1;
  if (oh <= 0 || ow <= 0) throw std::invalid_argument("MaxPool2d: input too small");
  cached_shape_ = x.shape();
  Tensor out({n, c, oh, ow}, Tensor::Uninit{});
  cached_argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  const float* in = x.data();
  float* o = out.data();
#ifdef FP_POOL_X86
  if (kHasAvx512 && kernel_ == 2 && stride_ == 2 && ow <= 16 &&
      h * w <= std::numeric_limits<std::int32_t>::max()) {
    for (std::int64_t p = 0; p < n * c; ++p)
      pool2x2_plane_avx512(in + p * h * w, w, oh, ow, p * h * w,
                           o + p * oh * ow,
                           cached_argmax_.data() + p * oh * ow);
    return out;
  }
#endif
  std::int64_t oi = 0;
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (i * c + ch) * h * w;
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t x2 = 0; x2 < ow; ++x2, ++oi) {
          // The window's first tap holds the index until a tap beats -inf,
          // so a window of -inf or NaN routes its gradient into itself.
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = y * stride_ * w + x2 * stride_;
          for (std::int64_t ky = 0; ky < kernel_; ++ky)
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const std::int64_t iy = y * stride_ + ky;
              const std::int64_t ix = x2 * stride_ + kx;
              const std::int64_t idx = iy * w + ix;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          o[oi] = best;
          cached_argmax_[static_cast<std::size_t>(oi)] =
              (i * c + ch) * h * w + best_idx;
        }
    }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (cached_shape_.empty()) throw std::logic_error("MaxPool2d::backward before forward");
  if (grad_out.numel() != static_cast<std::int64_t>(cached_argmax_.size()))
    throw std::invalid_argument("MaxPool2d::backward: grad " +
                                grad_out.shape_str() + " vs " +
                                std::to_string(cached_argmax_.size()) +
                                " pooled outputs");
  FP_TRACE_KERNEL("maxpool_bwd", "batch", cached_shape_[0]);
  const std::int64_t h = cached_shape_[2], w = cached_shape_[3];
  const float* go = grad_out.data();
  if (kernel_ == 2 && stride_ == 2 && h % 2 == 0 && w % 2 == 0) {
    // The windows tile the plane, so each input pixel has exactly one, and
    // output rows [r0, r1) cover input rows [2 r0, 2 r1). One pass clears
    // ~8 KB of input rows at a time and writes 0.0f + go at each of their
    // windows' argmax while they are in L1: the sum the zero-fill and
    // scatter-add below give, -0 included.
    Tensor grad_in(cached_shape_, Tensor::Uninit{});
    float* gi = grad_in.data();
    const std::int64_t ow = w / 2, out_rows = grad_out.numel() / ow;
    const std::int64_t step = std::max<std::int64_t>(1, 1024 / w);
    for (std::int64_t r0 = 0; r0 < out_rows; r0 += step) {
      const std::int64_t r1 = std::min(out_rows, r0 + step);
      std::fill(gi + 2 * r0 * w, gi + 2 * r1 * w, 0.0f);
      for (std::int64_t o = r0 * ow; o < r1 * ow; ++o)
        gi[cached_argmax_[static_cast<std::size_t>(o)]] = 0.0f + go[o];
    }
    return grad_in;
  }
  Tensor grad_in(cached_shape_);
  float* gi = grad_in.data();
  for (std::int64_t i = 0; i < grad_out.numel(); ++i)
    gi[cached_argmax_[static_cast<std::size_t>(i)]] += go[i];
  return grad_in;
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*train*/) {
  if (x.ndim() != 4) throw std::invalid_argument("GlobalAvgPool: want NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
  cached_shape_ = x.shape();
  Tensor out({n, c});
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* p = x.data() + (i * c + ch) * plane;
      double s = 0.0;
      for (std::int64_t j = 0; j < plane; ++j) s += p[j];
      out[i * c + ch] = static_cast<float>(s) * inv;
    }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  if (cached_shape_.empty())
    throw std::logic_error("GlobalAvgPool::backward before forward");
  const std::int64_t n = cached_shape_[0], c = cached_shape_[1],
                     plane = cached_shape_[2] * cached_shape_[3];
  Tensor grad_in(cached_shape_);
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_out[i * c + ch] * inv;
      float* p = grad_in.data() + (i * c + ch) * plane;
      for (std::int64_t j = 0; j < plane; ++j) p[j] = g;
    }
  return grad_in;
}

}  // namespace fp::nn
