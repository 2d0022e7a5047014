#include "nn/norm.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "tensor/compute_mode.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FP_NORM_X86 1
#endif

namespace fp::nn {

namespace {

// The layer's three passes over an NCHW batch (DESIGN.md §2.6). Channel
// sums are doubles accumulated in (i, j) order, sample-major then pixel,
// one chain per channel; the float affine passes round every product and
// sum separately, as the baseline x86-64 scalar loops do. The AVX-512
// kernels keep both: sums run 8 channels side by side, one double lane
// each, and the float passes are compiled with contraction off.

/// sa[ch] = sum of a, sab[ch] = sum of double(a) * b over channel ch, for
/// channels [ch0, c).
void channel_sums_scalar(const float* a, const float* b, std::int64_t n,
                         std::int64_t c, std::int64_t plane, std::int64_t ch0,
                         double* sa, double* sab) {
  for (std::int64_t ch = ch0; ch < c; ++ch) {
    double s = 0.0, s2 = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* pa = a + (i * c + ch) * plane;
      const float* pb = b + (i * c + ch) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        s += pa[j];
        s2 += static_cast<double>(pa[j]) * pb[j];
      }
    }
    sa[ch] = s;
    sab[ch] = s2;
  }
}

/// xh = (x - mu) * inv; out = g * xh + beta, per channel.
void affine_fwd_scalar(const float* x, std::int64_t n, std::int64_t c,
                       std::int64_t plane, const float* mu, const float* inv,
                       const float* g, const float* beta, float* xhat,
                       float* out) {
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const std::int64_t off = (i * c + ch) * plane;
      const float* p = x + off;
      float* xh = xhat + off;
      float* o = out + off;
      const float m = mu[ch], is = inv[ch], gc = g[ch], bc = beta[ch];
      for (std::int64_t j = 0; j < plane; ++j) {
        xh[j] = (p[j] - m) * is;
        o[j] = gc * xh[j] + bc;
      }
    }
}

/// Train mode: gi = k * (cnt * go - sgo - xh * sgx). Eval mode (xhat null):
/// gi = k * go.
void affine_bwd_scalar(const float* grad_out, const float* xhat,
                       std::int64_t n, std::int64_t c, std::int64_t plane,
                       const float* k, float cnt, const float* sgo,
                       const float* sgx, float* grad_in) {
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const std::int64_t off = (i * c + ch) * plane;
      const float* go = grad_out + off;
      float* gi = grad_in + off;
      const float kc = k[ch];
      if (xhat == nullptr) {
        for (std::int64_t j = 0; j < plane; ++j) gi[j] = kc * go[j];
        continue;
      }
      const float* xh = xhat + off;
      const float so = sgo[ch], sx = sgx[ch];
      for (std::int64_t j = 0; j < plane; ++j)
        gi[j] = kc * (cnt * go[j] - so - xh[j] * sx);
    }
}

#ifdef FP_NORM_X86
const bool kHasAvx512 = __builtin_cpu_supports("avx512f");

/// Transposes the 8x8 block r[0..7] in place: afterwards r[k] holds
/// element k of every input row, row q in lane q.
__attribute__((target("avx512f"))) inline void transpose8(__m256 r[8]) {
  __m256 t[8], u[8];
  for (int q = 0; q < 8; q += 2) {
    t[q] = _mm256_unpacklo_ps(r[q], r[q + 1]);
    t[q + 1] = _mm256_unpackhi_ps(r[q], r[q + 1]);
  }
  for (int q = 0; q < 8; q += 4) {
    u[q] = _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[q + 1] = _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[q + 2] = _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[q + 3] = _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int q = 0; q < 4; ++q) {
    r[q] = _mm256_permute2f128_ps(u[q], u[q + 4], 0x20);
    r[q + 4] = _mm256_permute2f128_ps(u[q], u[q + 4], 0x31);
  }
}

/// Loads `lanes` (1..8) floats of each of 8 rows `ld` apart, zero past them.
__attribute__((target("avx512f"))) inline void load8(const float* p,
                                                     std::int64_t ld,
                                                     __mmask16 lanes,
                                                     __m256 r[8]) {
  for (int q = 0; q < 8; ++q)
    r[q] = _mm512_castps512_ps256(_mm512_maskz_loadu_ps(lanes, p + q * ld));
}

/// Adds pixels [0, count) of one transposed block: lane q of s gets channel
/// q's values of a, lane q of s2 its products a * b, pixel by pixel.
__attribute__((target("avx512f"), always_inline)) inline void add_block(
    const float* a, const float* b, std::int64_t ld, __mmask16 lanes,
    int count, __m512d& s, __m512d& s2) {
  __m256 r[8];
  __m512d da[8];
  load8(a, ld, lanes, r);
  transpose8(r);
  for (int k = 0; k < 8; ++k) da[k] = _mm512_cvtps_pd(r[k]);
  if (b != a) {
    load8(b, ld, lanes, r);
    transpose8(r);
  }
  for (int k = 0; k < count; ++k) {
    const __m512d db = b != a ? _mm512_cvtps_pd(r[k]) : da[k];
    s = _mm512_add_pd(s, da[k]);
    s2 = _mm512_add_pd(s2, _mm512_mul_pd(da[k], db));
  }
}

/// channel_sums_scalar for channels [0, c / 8 * 8): each 8-channel x
/// 8-pixel block is transposed so pixel k of all 8 channels lands in one
/// vector, and lane q adds channel q's values in the scalar (i, j) order.
/// The products of two floats are exact in double, so whether the compiler
/// fuses the multiply into the add cannot change a sum.
__attribute__((target("avx512f"))) void channel_sums_avx512(
    const float* a, const float* b, std::int64_t n, std::int64_t c,
    std::int64_t plane, double* sa, double* sab) {
  const std::int64_t full = plane / 8 * 8;
  const int rest = static_cast<int>(plane - full);
  const __mmask16 tail = static_cast<__mmask16>((1u << rest) - 1u);
  for (std::int64_t ch0 = 0; ch0 + 8 <= c; ch0 += 8) {
    __m512d s = _mm512_setzero_pd(), s2 = _mm512_setzero_pd();
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t off = (i * c + ch0) * plane;
      for (std::int64_t j = 0; j < full; j += 8)
        add_block(a + off + j, b + off + j, plane, 0xFF, 8, s, s2);
      if (rest > 0)
        add_block(a + off + full, b + off + full, plane, tail, rest, s, s2);
    }
    _mm512_storeu_pd(sa + ch0, s);
    _mm512_storeu_pd(sab + ch0, s2);
  }
}

/// The lanes [0, count) of a 16-lane vector.
inline __mmask16 head_lanes(std::int64_t count) {
  return static_cast<__mmask16>((1u << count) - 1u);
}

// The float passes must round like the scalar loops: contraction off, so
// no multiply fuses into the add that follows it.

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
affine_fwd_avx512(const float* x, std::int64_t n, std::int64_t c,
                  std::int64_t plane, const float* mu, const float* inv,
                  const float* g, const float* beta, float* xhat, float* out) {
  const std::int64_t full = plane / 16 * 16;
  const __mmask16 tail = head_lanes(plane - full);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const std::int64_t off = (i * c + ch) * plane;
      const __m512 vmu = _mm512_set1_ps(mu[ch]), vinv = _mm512_set1_ps(inv[ch]);
      const __m512 vg = _mm512_set1_ps(g[ch]), vb = _mm512_set1_ps(beta[ch]);
      for (std::int64_t j = 0; j < plane; j += 16) {
        const __mmask16 m = j < full ? __mmask16(0xFFFF) : tail;
        const __m512 p = _mm512_maskz_loadu_ps(m, x + off + j);
        const __m512 xh = _mm512_mul_ps(_mm512_sub_ps(p, vmu), vinv);
        _mm512_mask_storeu_ps(xhat + off + j, m, xh);
        _mm512_mask_storeu_ps(out + off + j, m,
                              _mm512_add_ps(_mm512_mul_ps(vg, xh), vb));
      }
    }
}

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
affine_bwd_avx512(const float* grad_out, const float* xhat, std::int64_t n,
                  std::int64_t c, std::int64_t plane, const float* k,
                  float cnt, const float* sgo, const float* sgx,
                  float* grad_in) {
  const std::int64_t full = plane / 16 * 16;
  const __mmask16 tail = head_lanes(plane - full);
  const __m512 vcnt = _mm512_set1_ps(cnt);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const std::int64_t off = (i * c + ch) * plane;
      const __m512 vk = _mm512_set1_ps(k[ch]);
      if (xhat == nullptr) {
        for (std::int64_t j = 0; j < plane; j += 16) {
          const __mmask16 m = j < full ? __mmask16(0xFFFF) : tail;
          const __m512 go = _mm512_maskz_loadu_ps(m, grad_out + off + j);
          _mm512_mask_storeu_ps(grad_in + off + j, m, _mm512_mul_ps(vk, go));
        }
        continue;
      }
      const __m512 vsgo = _mm512_set1_ps(sgo[ch]);
      const __m512 vsgx = _mm512_set1_ps(sgx[ch]);
      for (std::int64_t j = 0; j < plane; j += 16) {
        const __mmask16 m = j < full ? __mmask16(0xFFFF) : tail;
        const __m512 go = _mm512_maskz_loadu_ps(m, grad_out + off + j);
        const __m512 xh = _mm512_maskz_loadu_ps(m, xhat + off + j);
        const __m512 t = _mm512_sub_ps(_mm512_mul_ps(vcnt, go), vsgo);
        const __m512 d = _mm512_sub_ps(t, _mm512_mul_ps(xh, vsgx));
        _mm512_mask_storeu_ps(grad_in + off + j, m, _mm512_mul_ps(vk, d));
      }
    }
}
#endif

void channel_sums(const float* a, const float* b, std::int64_t n,
                  std::int64_t c, std::int64_t plane, double* sa,
                  double* sab) {
  std::int64_t done = 0;
#ifdef FP_NORM_X86
  if (kHasAvx512) {
    channel_sums_avx512(a, b, n, c, plane, sa, sab);
    done = c / 8 * 8;
  }
#endif
  channel_sums_scalar(a, b, n, c, plane, done, sa, sab);
}

void affine_fwd(const float* x, std::int64_t n, std::int64_t c,
                std::int64_t plane, const float* mu, const float* inv,
                const float* g, const float* beta, float* xhat, float* out) {
#ifdef FP_NORM_X86
  if (kHasAvx512)
    return affine_fwd_avx512(x, n, c, plane, mu, inv, g, beta, xhat, out);
#endif
  affine_fwd_scalar(x, n, c, plane, mu, inv, g, beta, xhat, out);
}

void affine_bwd(const float* grad_out, const float* xhat, std::int64_t n,
                std::int64_t c, std::int64_t plane, const float* k, float cnt,
                const float* sgo, const float* sgx, float* grad_in) {
#ifdef FP_NORM_X86
  if (kHasAvx512)
    return affine_bwd_avx512(grad_out, xhat, n, c, plane, k, cnt, sgo, sgx,
                             grad_in);
#endif
  affine_bwd_scalar(grad_out, xhat, n, c, plane, k, cnt, sgo, sgx, grad_in);
}

}  // namespace

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
  FP_TRACE_KERNEL("batchnorm_fwd", "batch", x.ndim() == 4 ? x.dim(0) : 0);
  if (x.ndim() != 4 || x.dim(1) != channels_)
    throw std::invalid_argument("BatchNorm2d: bad input " + x.shape_str());
  const std::int64_t n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  cached_shape_ = x.shape();
  cached_train_ = train;
  cached_xhat_ = Tensor(x.shape(), Tensor::Uninit{});
  cached_inv_std_ = Tensor({c});
  Tensor out(x.shape(), Tensor::Uninit{});

  const auto cs = static_cast<std::size_t>(c);
  std::vector<double> sum(cs), sum_sq(cs);
  if (train)
    channel_sums(x.data(), x.data(), n, c, plane, sum.data(), sum_sq.data());
  std::vector<float> mu(cs);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    double mean, var;
    if (train) {
      mean = sum[ch] / count;
      var = sum_sq[ch] / count - mean * mean;
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
    cached_inv_std_[ch] = static_cast<float>(1.0 / std::sqrt(var + eps_));
    mu[ch] = static_cast<float>(mean);
  }
  affine_fwd(x.data(), n, c, plane, mu.data(), cached_inv_std_.data(),
             gamma_.data(), beta_.data(), cached_xhat_.data(), out.data());
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (cached_xhat_.empty()) throw std::logic_error("BatchNorm2d::backward before forward");
  const std::int64_t n = cached_shape_[0], c = channels_, h = cached_shape_[2],
                     w = cached_shape_[3];
  FP_TRACE_KERNEL("batchnorm_bwd", "batch", n);
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  Tensor grad_in(cached_shape_, Tensor::Uninit{});
  // Under an InputGradScope dgamma/dbeta are not accumulated, and eval mode
  // (dx = g * inv_std * go) needs neither channel sum.
  const bool param_grads = !compute::input_grad_only();
  const bool need_sums = param_grads || cached_train_;

  // dgamma = sum(go * xhat), dbeta = sum(go).
  const auto cs = static_cast<std::size_t>(c);
  std::vector<double> sum_go(cs), sum_go_xhat(cs);
  if (need_sums)
    channel_sums(grad_out.data(), cached_xhat_.data(), n, c, plane,
                 sum_go.data(), sum_go_xhat.data());
  std::vector<float> k(cs), sgo(cs), sgx(cs);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    if (param_grads) {
      grad_gamma_[ch] += static_cast<float>(sum_go_xhat[ch]);
      grad_beta_[ch] += static_cast<float>(sum_go[ch]);
    }
    // Train mode, the full batch-stat backward:
    //   dx = g*inv_std/count * (count*go - sum_go - xhat*sum_go_xhat);
    // eval mode, a per-channel affine map: dx = g * inv_std * go.
    k[ch] = gamma_[ch] * cached_inv_std_[ch];
    if (cached_train_) k[ch] /= static_cast<float>(count);
    sgo[ch] = static_cast<float>(sum_go[ch]);
    sgx[ch] = static_cast<float>(sum_go_xhat[ch]);
  }
  affine_bwd(grad_out.data(), cached_train_ ? cached_xhat_.data() : nullptr, n,
             c, plane, k.data(), static_cast<float>(count), sgo.data(),
             sgx.data(), grad_in.data());
  return grad_in;
}

}  // namespace fp::nn
