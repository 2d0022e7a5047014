#include "tensor/qgemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FP_QGEMM_X86 1
#endif

namespace fp {

namespace {

/// k padding unit: one AVX-512 vector of codes (two AVX2 vectors).
constexpr std::int64_t kChunk = 64;
/// Kernel tile: up to 4 a-rows x 4 b-rows per call.
constexpr std::int64_t kTile = 4;

/// Computes the 4x4 (or smaller: mr/nr valid) output tile
///   C[i0+r, j0+s] = float(dot(a row r, b row s)) * a_scales[r] * b_scales[s]
/// from the code panels. Rows are padded to the tile, so kernels may load a
/// full 4x4 tile of codes/scales/sums unconditionally and only guard stores.
using QTileKernel = void (*)(const std::int8_t* a_codes,
                             const std::int8_t* b_codes, std::int64_t k_padded,
                             const float* a_scales, const float* b_scales,
                             const std::int32_t* b_sums, std::int64_t mr,
                             std::int64_t nr, float* c, std::int64_t ldc);

void qtile_generic(const std::int8_t* a_codes, const std::int8_t* b_codes,
                   std::int64_t k_padded, const float* a_scales,
                   const float* b_scales, const std::int32_t* /*b_sums*/,
                   std::int64_t mr, std::int64_t nr, float* c,
                   std::int64_t ldc) {
  for (std::int64_t r = 0; r < mr; ++r) {
    const std::int8_t* ar = a_codes + r * k_padded;
    for (std::int64_t s = 0; s < nr; ++s) {
      const std::int8_t* bs = b_codes + s * k_padded;
      std::int32_t dot = 0;
      for (std::int64_t t = 0; t < k_padded; ++t)
        dot += static_cast<std::int32_t>(ar[t]) * bs[t];
      const float scale = a_scales[r] * b_scales[s];
      c[r * ldc + s] = static_cast<float>(dot) * scale;
    }
  }
}

#ifdef FP_QGEMM_X86

/// Sums the 8 int32 lanes of one AVX2 accumulator.
__attribute__((target("avx2"))) inline std::int32_t hsum8_epi32(__m256i v) {
  __m128i x = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  x = _mm_add_epi32(x, _mm_shuffle_epi32(x, _MM_SHUFFLE(1, 0, 3, 2)));
  x = _mm_add_epi32(x, _mm_shuffle_epi32(x, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(x);
}

// maddubs multiplies u8 x s8; the sign trick routes |b| through the unsigned
// operand and transfers b's sign onto a, so each pair product equals a*b.
// Codes are clamped to ±127, so |pair sum| <= 2*127*127 < INT16_MAX: the
// saturating add never saturates, and madd-by-ones widens exactly to int32.
// Each int32 lane gains at most 4*127*127 per 32-code chunk, so the int32
// accumulator is exact for any realistic k (overflow needs k > 10^6).
__attribute__((target("avx2"))) void qtile_avx2(
    const std::int8_t* a_codes, const std::int8_t* b_codes,
    std::int64_t k_padded, const float* a_scales, const float* b_scales,
    const std::int32_t* /*b_sums*/, std::int64_t mr, std::int64_t nr, float* c,
    std::int64_t ldc) {
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::int64_t s0 = 0; s0 < nr; s0 += 2) {  // 4x2 sub-tiles
    const std::int8_t* b0 = b_codes + s0 * k_padded;
    const std::int8_t* b1 = b0 + k_padded;  // padded rows: always readable
    __m256i acc[kTile][2];
    for (std::int64_t r = 0; r < kTile; ++r)
      acc[r][0] = acc[r][1] = _mm256_setzero_si256();
    for (std::int64_t t = 0; t < k_padded; t += 32) {
      const __m256i vb0 =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(b0 + t));
      const __m256i vb1 =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(b1 + t));
      const __m256i ab0 = _mm256_sign_epi8(vb0, vb0);
      const __m256i ab1 = _mm256_sign_epi8(vb1, vb1);
      for (std::int64_t r = 0; r < kTile; ++r) {
        const __m256i va = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(a_codes + r * k_padded + t));
        acc[r][0] = _mm256_add_epi32(
            acc[r][0],
            _mm256_madd_epi16(_mm256_maddubs_epi16(ab0, _mm256_sign_epi8(va, vb0)),
                              ones));
        acc[r][1] = _mm256_add_epi32(
            acc[r][1],
            _mm256_madd_epi16(_mm256_maddubs_epi16(ab1, _mm256_sign_epi8(va, vb1)),
                              ones));
      }
    }
    for (std::int64_t r = 0; r < mr; ++r)
      for (std::int64_t s = s0; s < std::min(s0 + 2, nr); ++s) {
        const std::int32_t dot = hsum8_epi32(acc[r][s - s0]);
        const float scale = a_scales[r] * b_scales[s];
        c[r * ldc + s] = static_cast<float>(dot) * scale;
      }
  }
}

/// Folds one 512-bit int32 accumulator to the 4 lanes of a __m128i.
__attribute__((target("avx512f,avx512vl,avx2"))) inline __m128i fold512(
    __m512i v) {
  const __m256i h = _mm256_add_epi32(_mm512_castsi512_si256(v),
                                     _mm512_extracti64x4_epi64(v, 1));
  return _mm_add_epi32(_mm256_castsi256_si128(h),
                       _mm256_extracti128_si256(h, 1));
}

// dpbusd fuses the whole u8 x s8 dot-widen-accumulate into one instruction.
// dpbusd wants an UNSIGNED left operand, so a's codes are biased by +128
// (one XOR with 0x80) and the epilogue subtracts 128 * sum(b codes) — exact
// integer arithmetic throughout. 16 independent 512-bit accumulators cover
// the 4x4 tile: 1024 MACs per 64-code step of the k loop.
__attribute__((target("avx512vnni,avx512vl,avx2"))) void qtile_vnni(
    const std::int8_t* a_codes, const std::int8_t* b_codes,
    std::int64_t k_padded, const float* a_scales, const float* b_scales,
    const std::int32_t* b_sums, std::int64_t mr, std::int64_t nr, float* c,
    std::int64_t ldc) {
  const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
  __m512i acc[kTile][kTile];
  for (std::int64_t r = 0; r < kTile; ++r)
    for (std::int64_t s = 0; s < kTile; ++s) acc[r][s] = _mm512_setzero_si512();
  for (std::int64_t t = 0; t < k_padded; t += kChunk) {
    const __m512i b0 = _mm512_load_si512(b_codes + t);
    const __m512i b1 = _mm512_load_si512(b_codes + k_padded + t);
    const __m512i b2 = _mm512_load_si512(b_codes + 2 * k_padded + t);
    const __m512i b3 = _mm512_load_si512(b_codes + 3 * k_padded + t);
    for (std::int64_t r = 0; r < kTile; ++r) {
      const __m512i ar = _mm512_xor_si512(
          _mm512_load_si512(a_codes + r * k_padded + t), bias);
      acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], ar, b0);
      acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], ar, b1);
      acc[r][2] = _mm512_dpbusd_epi32(acc[r][2], ar, b2);
      acc[r][3] = _mm512_dpbusd_epi32(acc[r][3], ar, b3);
    }
  }
  // Per a-row: transpose-reduce the 4 accumulators to one __m128i of dots,
  // undo the +128 bias, and rescale. Pad lanes (sums/scales are zero there)
  // produce zeros that the guarded store drops.
  const __m128i corr =
      _mm_slli_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b_sums)), 7);
  const __m128 vbs = _mm_loadu_ps(b_scales);
  for (std::int64_t r = 0; r < mr; ++r) {
    const __m128i h01 = _mm_hadd_epi32(fold512(acc[r][0]), fold512(acc[r][1]));
    const __m128i h23 = _mm_hadd_epi32(fold512(acc[r][2]), fold512(acc[r][3]));
    const __m128i dots = _mm_sub_epi32(_mm_hadd_epi32(h01, h23), corr);
    const __m128 scale = _mm_mul_ps(_mm_set1_ps(a_scales[r]), vbs);
    const __m128 res = _mm_mul_ps(_mm_cvtepi32_ps(dots), scale);
    if (nr == kTile) {
      _mm_storeu_ps(c + r * ldc, res);
    } else {
      alignas(16) float tmp[4];
      _mm_store_ps(tmp, res);
      for (std::int64_t s = 0; s < nr; ++s) c[r * ldc + s] = tmp[s];
    }
  }
}

#endif  // FP_QGEMM_X86

struct QKernelChoice {
  QTileKernel kernel;
  const char* name;
};

QKernelChoice pick_qkernel() {
#ifdef FP_QGEMM_X86
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx2"))
    return {&qtile_vnni, "avx512vnni"};
  if (__builtin_cpu_supports("avx2")) return {&qtile_avx2, "avx2"};
#endif
  return {&qtile_generic, "generic"};
}

const QKernelChoice kQKernel = pick_qkernel();

void size_pack(QuantizedMat& out, std::int64_t rows, std::int64_t k) {
  out.rows = rows;
  out.k = k;
  out.k_padded = (k + kChunk - 1) / kChunk * kChunk;
  const std::int64_t rows_padded = (rows + kTile - 1) / kTile * kTile;
  out.codes.resize(static_cast<std::size_t>(rows_padded * out.k_padded));
  out.scales.resize(static_cast<std::size_t>(rows_padded));
  out.sums.resize(static_cast<std::size_t>(rows_padded));
  // The pad rows must read as all-zero (storage may be reused).
  if (rows_padded > rows && out.k_padded > 0)
    std::memset(out.codes.data() + rows * out.k_padded, 0,
                static_cast<std::size_t>((rows_padded - rows) * out.k_padded));
  for (std::int64_t r = rows; r < rows_padded; ++r) {
    out.scales[static_cast<std::size_t>(r)] = 0.0f;
    out.sums[static_cast<std::size_t>(r)] = 0;
  }
}

#ifdef FP_QGEMM_X86

/// AVX-512 row quantizer, bit-identical to quant::quantize_block_int8 (same
/// absmax reduction — order-independent —, same step, and vcvtps2dq rounds
/// to nearest-even exactly like std::nearbyint in the default mode). Also
/// emits the code sum the VNNI kernel's bias correction needs.
__attribute__((target("avx512f,avx512vl,avx2"))) void quantize_row_avx512(
    const float* src, std::int64_t k, std::int8_t* codes, float* scale,
    std::int32_t* sum, std::int64_t k_padded) {
  __m512 vmax = _mm512_setzero_ps();
  std::int64_t t = 0;
  for (; t + 16 <= k; t += 16)
    vmax = _mm512_max_ps(vmax, _mm512_abs_ps(_mm512_loadu_ps(src + t)));
  float absmax = _mm512_reduce_max_ps(vmax);
  for (; t < k; ++t) absmax = std::max(absmax, std::fabs(src[t]));
  if (absmax == 0.0f) {
    *scale = 0.0f;
    *sum = 0;
    // k == 0 rows have no code storage (codes may be null).
    if (k_padded > 0) std::memset(codes, 0, static_cast<std::size_t>(k_padded));
    return;
  }
  const float step = quant::symmetric_step(absmax, 8);
  *scale = step;
  const __m512 vinv = _mm512_set1_ps(1.0f / step);
  const __m512i lo = _mm512_set1_epi32(-127);
  const __m512i hi = _mm512_set1_epi32(127);
  __m512i vsum = _mm512_setzero_si512();
  t = 0;
  for (; t + 16 <= k; t += 16) {
    const __m512i q = _mm512_cvtps_epi32(
        _mm512_mul_ps(_mm512_loadu_ps(src + t), vinv));
    const __m512i c = _mm512_max_epi32(lo, _mm512_min_epi32(hi, q));
    vsum = _mm512_add_epi32(vsum, c);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + t),
                     _mm512_cvtepi32_epi8(c));
  }
  std::int32_t s = _mm512_reduce_add_epi32(vsum);
  const float inv = 1.0f / step;
  for (; t < k; ++t) {
    const float q = std::nearbyint(src[t] * inv);
    const std::int8_t c =
        static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
    codes[t] = c;
    s += c;
  }
  *sum = s;
  if (k < k_padded)
    std::memset(codes + k, 0, static_cast<std::size_t>(k_padded - k));
}

#endif  // FP_QGEMM_X86

/// Whole-row quantize on the shared symmetric grid + zero pad + code sum.
void quantize_row_scalar(const float* src, std::int64_t k, std::int8_t* codes,
                         float* scale, std::int32_t* sum,
                         std::int64_t k_padded) {
  quant::quantize_block_int8(src, k, codes, scale);
  for (std::int64_t t = k; t < k_padded; ++t) codes[t] = 0;
  std::int32_t s = 0;
  for (std::int64_t t = 0; t < k; ++t) s += codes[t];
  *sum = s;
}

using QuantizeRowFn = void (*)(const float*, std::int64_t, std::int8_t*,
                               float*, std::int32_t*, std::int64_t);

QuantizeRowFn pick_quantize_row() {
#ifdef FP_QGEMM_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
    return &quantize_row_avx512;
#endif
  return &quantize_row_scalar;
}

const QuantizeRowFn kQuantizeRow = pick_quantize_row();

void quantize_row(const float* src, std::int64_t k, std::int8_t* codes,
                  float* scale, std::int32_t* sum, std::int64_t k_padded) {
  kQuantizeRow(src, k, codes, scale, sum, k_padded);
}

/// dst[j * k + i] = src[i * ld + j] for i in [0, k), j in [0, jn) — the
/// stripe transpose feeding quantize_cols. 4x4 SSE blocks (baseline ISA);
/// scalar edges.
void transpose_stripe(const float* src, std::int64_t k, std::int64_t jn,
                      std::int64_t ld, float* dst) {
#ifdef FP_QGEMM_X86
  std::int64_t i = 0;
  for (; i + 4 <= k; i += 4) {
    std::int64_t j = 0;
    for (; j + 4 <= jn; j += 4) {
      __m128 r0 = _mm_loadu_ps(src + (i + 0) * ld + j);
      __m128 r1 = _mm_loadu_ps(src + (i + 1) * ld + j);
      __m128 r2 = _mm_loadu_ps(src + (i + 2) * ld + j);
      __m128 r3 = _mm_loadu_ps(src + (i + 3) * ld + j);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      _mm_storeu_ps(dst + (j + 0) * k + i, r0);
      _mm_storeu_ps(dst + (j + 1) * k + i, r1);
      _mm_storeu_ps(dst + (j + 2) * k + i, r2);
      _mm_storeu_ps(dst + (j + 3) * k + i, r3);
    }
    for (; j < jn; ++j)
      for (std::int64_t d = 0; d < 4; ++d)
        dst[j * k + i + d] = src[(i + d) * ld + j];
  }
  for (; i < k; ++i)
    for (std::int64_t j = 0; j < jn; ++j) dst[j * k + i] = src[i * ld + j];
#else
  for (std::int64_t i = 0; i < k; ++i)
    for (std::int64_t j = 0; j < jn; ++j) dst[j * k + i] = src[i * ld + j];
#endif
}

}  // namespace

void quantize_rows_int8(const float* src, std::int64_t rows, std::int64_t k,
                        std::int64_t ld, QuantizedMat& out) {
  size_pack(out, rows, k);
  std::int8_t* codes = out.codes.data();
  const std::int64_t kp = out.k_padded;
  core::parallel_for(0, rows, 8, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r)
      quantize_row(src + r * ld, k, codes + r * kp, &out.scales[r], &out.sums[r],
                   kp);
  });
}

void quantize_cols_int8(const float* src, std::int64_t k, std::int64_t n,
                        std::int64_t ld, QuantizedMat& out) {
  size_pack(out, n, k);
  std::int8_t* codes = out.codes.data();
  const std::int64_t kp = out.k_padded;
  // Per 64-column stripe: SSE-blocked transpose into a contiguous [jn, k]
  // scratch (reads the source row-contiguously, writes inside an L1/L2-sized
  // buffer), then the shared row quantizer runs on contiguous rows — the
  // pack is bit-identical to quantize_rows_int8 of the explicit transpose
  // by construction.
  constexpr std::int64_t kStripe = 64;
  core::parallel_for(0, n, kStripe, [&](std::int64_t j0, std::int64_t j1) {
    std::vector<float> tmp(static_cast<std::size_t>(kStripe * k));
    for (std::int64_t jb = j0; jb < j1; jb += kStripe) {
      const std::int64_t jn = std::min(kStripe, j1 - jb);
      transpose_stripe(src + jb, k, jn, ld, tmp.data());
      for (std::int64_t j = 0; j < jn; ++j)
        quantize_row(tmp.data() + j * k, k, codes + (jb + j) * kp,
                     &out.scales[jb + j], &out.sums[jb + j], kp);
    }
  });
}

void qgemm_nt(std::int64_t m, std::int64_t n, const QuantizedMat& a,
              const QuantizedMat& b, float* c, std::int64_t ldc) {
  FP_TRACE_KERNEL("qgemm_nt", "mnk", m * n * a.k_padded);
  static obs::Counter& calls = obs::counter("kernel.qgemm_calls");
  calls.add();
  if (m <= 0 || n <= 0) return;
  if (a.k_padded == 0 || b.k_padded == 0) {
    // k <= 0: the blocked gemm's contract at beta=0 — clear and return.
    for (std::int64_t i = 0; i < m; ++i)
      std::memset(c + i * ldc, 0, static_cast<std::size_t>(n) * sizeof(float));
    return;
  }
  const std::int64_t kp = a.k_padded;
  const std::int8_t* ac = a.codes.data();
  const std::int8_t* bc = b.codes.data();
  // Cache blocking: the inner sweep revisits one operand per outer step, so
  // group b's column tiles into ~32 KB panels that stay cache-resident while
  // every a-row tile streams past once per panel (instead of streaming the
  // whole b pack once per a tile).
  const std::int64_t panel_tiles =
      std::max<std::int64_t>(1, 32768 / (kTile * kp));
  auto run_col_panels = [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t jt0 = p * panel_tiles;
      const std::int64_t jt1 =
          std::min(jt0 + panel_tiles, (n + kTile - 1) / kTile);
      for (std::int64_t i = 0; i < m; i += kTile) {
        const std::int64_t mr = std::min(kTile, m - i);
        for (std::int64_t t = jt0; t < jt1; ++t) {
          const std::int64_t j = t * kTile;
          kQKernel.kernel(ac + i * kp, bc + j * kp, kp, a.scales.data() + i,
                          b.scales.data() + j, b.sums.data() + j, mr,
                          std::min(kTile, n - j), c + i * ldc + j, ldc);
        }
      }
    }
  };
  if (n >= m) {
    const std::int64_t col_tiles = (n + kTile - 1) / kTile;
    const std::int64_t panels = (col_tiles + panel_tiles - 1) / panel_tiles;
    core::parallel_for(0, panels, 1, run_col_panels);
  } else {
    // Tall-skinny outputs (eval Linear): spread row tiles instead.
    core::parallel_for(0, (m + kTile - 1) / kTile, 1,
                       [&](std::int64_t t0, std::int64_t t1) {
                         for (std::int64_t t = t0; t < t1; ++t) {
                           const std::int64_t i = t * kTile;
                           const std::int64_t mr = std::min(kTile, m - i);
                           for (std::int64_t j = 0; j < n; j += kTile)
                             kQKernel.kernel(ac + i * kp, bc + j * kp, kp,
                                             a.scales.data() + i,
                                             b.scales.data() + j,
                                             b.sums.data() + j, mr,
                                             std::min(kTile, n - j),
                                             c + i * ldc + j, ldc);
                         }
                       });
  }
}

const char* qgemm_kernel_name() { return kQKernel.name; }

bool qgemm_profitable(std::int64_t k) { return k >= 64; }

std::uint64_t content_hash_fnv1a(const void* data, std::size_t bytes) {
  // Weight tensors reach tens of MB, so the classic byte-serial FNV-1a (one
  // ~5-cycle multiply chained per byte) costs milliseconds per revalidation —
  // visible next to the GEMMs it guards. Run eight independent FNV-1a lanes
  // over interleaved 64-bit words (the multiplies pipeline across lanes,
  // ~8 bytes/cycle) and fold the lanes with one more FNV step each; the
  // byte-serial loop handles the tail. Only equality of the digest matters,
  // so the lane mixing changing the hash values is fine.
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t lanes[8] = {kOffset,     kOffset + 1, kOffset + 2, kOffset + 3,
                            kOffset + 4, kOffset + 5, kOffset + 6, kOffset + 7};
  std::size_t i = 0;
  for (; i + 64 <= bytes; i += 64) {
    for (int l = 0; l < 8; ++l) {
      std::uint64_t w;
      std::memcpy(&w, p + i + l * 8, 8);
      lanes[l] = (lanes[l] ^ w) * kPrime;
    }
  }
  std::uint64_t h = kOffset;
  for (int l = 0; l < 8; ++l) h = (h ^ lanes[l]) * kPrime;
  for (; i < bytes; ++i) h = (h ^ p[i]) * kPrime;
  return h;
}

double qgemm_error_bound(const QuantizedMat& a, std::int64_t i,
                         const QuantizedMat& b, std::int64_t j,
                         const float* a_row, std::int64_t a_stride,
                         const float* b_row, std::int64_t b_stride) {
  // The int32 dot is exact, so the only error is the rounding of each
  // operand to its row grid: (x+ex)(y+ey) - xy = x*ey + y*ex + ex*ey with
  // |ex| <= step_x/2. Summed over all elements of the row pair.
  const double ea = static_cast<double>(quant::error_bound(a.scale(i)));
  const double eb = static_cast<double>(quant::error_bound(b.scale(j)));
  double bound = 0.0;
  for (std::int64_t t = 0; t < a.k; ++t) {
    const double x = std::fabs(static_cast<double>(a_row[t * a_stride]));
    const double y = std::fabs(static_cast<double>(b_row[t * b_stride]));
    bound += x * eb + y * ea + ea * eb;
  }
  return bound;
}

}  // namespace fp
