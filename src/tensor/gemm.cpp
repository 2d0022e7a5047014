// Cache-blocked, panel-packed SGEMM (Goto-style), the single dense kernel
// every layer, attack, and baseline funnels through.
//
// Loop structure (BLIS nomenclature):
//   for jc in N by NC          -- C/B column panel
//     for pc in K by KC        -- rank-KC update, B panel packed once
//       for ic in M by MC      -- A block packed per worker  <- parallel
//         for jr in NC by NR   -- micro-panel of packed B
//           for ir in MC by MR -- micro-panel of packed A -> MRxNR microkernel
//
// Packing folds the four transpose variants into one kernel: op(A) element
// access happens only in pack_a, op(B)'s in pack_b (or, read in place, in
// the kernel), and the microkernel always consumes the same micro-panel
// layout: mr floats of A and nr floats of B per k step, B's rows `ldb`
// apart.
//
// When op(A) has few micro-rows (the conv forward, M = C_out), each packed
// B panel would feed only a handful of microkernel calls, so the copy costs
// as much memory traffic as the product. On AVX-512 a row-major op(B) is
// then read in place (ldb = n) instead of packed (ldb = nr): every C
// element keeps the same fma chain in the same KC panels, only the address
// its B values are loaded from changes. The ragged last panel of an
// in-place B loads through lane masks, so no load reads past a row's end.
//
// The register-tiled microkernels are compiled via function-level target
// attributes and selected once at startup with __builtin_cpu_supports:
//   AVX-512F 14x32 and 8x48, AVX2+FMA 6x16, portable 6x16 (baseline
//   fallback).
// The blocking constants travel with the kernel so each variant keeps its
// packed panels inside L1/L2. On AVX-512 each call picks the tile that pads
// fewer rows of op(A): 8x48 for M = 8, 16, 32, 72, 144, 288 (the conv
// shapes), 14x32 for M = 27.
//
// beta == 0 never reads C: the first KC panel stores alpha*acc + 0 (the sum
// the zero-filled C of a memset would have given, -0 included) and later
// panels accumulate. When a panel is shallow (the input-gradient GEMMs,
// K = C_out) the tiles are walked row panel outermost, so consecutive
// microkernels write along the same C rows.
//
// Determinism: each C element accumulates in k-ascending order across KC
// panels, entirely within one (ic, jr) tile owned by one chunk; the thread
// count and the tile shape only change which microkernel call computes an
// element, never its summation order (KC is the same for both AVX-512
// tiles and K is never split). See core/parallel.hpp for the pool-wide
// contract.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FP_GEMM_X86 1
#endif

namespace fp {

namespace {

/// c[0:rows, 0:cols] = alpha * (packed A panel x B panel) + base, where
/// row p of the B panel starts at pb + p * ldb (ldb = nr when packed) and
/// base is c itself, or 0 when `store` (the first KC panel of a beta == 0
/// call, which must not read C).
using MicroKernel = void (*)(std::int64_t kb, const float* pa, const float* pb,
                             std::int64_t ldb, float* c, std::int64_t ldc,
                             float alpha, std::int64_t rows, std::int64_t cols,
                             bool store);

struct KernelConfig {
  std::int64_t mr, nr;  ///< microkernel tile
  std::int64_t kc, mc, nc;  ///< cache blocking (L1 / L2 / L3 resident panels)
  MicroKernel kernel;  ///< packed B
  /// Row-major op(B) read in place: whole nr-wide panels, and the ragged
  /// last panel (null when the tile always packs B).
  MicroKernel in_place = nullptr, in_place_tail = nullptr;
};

inline std::int64_t round_up(std::int64_t x, std::int64_t to) {
  return (x + to - 1) / to * to;
}

#ifdef FP_GEMM_X86
/// In-register transpose of the 8x8 block src[i*ld + j] into dst[j*w + i].
__attribute__((target("avx"))) void transpose8x8(const float* src,
                                                 std::int64_t ld, float* dst,
                                                 std::int64_t w) {
  __m256 r[8], t[8];
  for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * ld);
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  for (int h = 0; h < 8; h += 4) {
    r[h] = _mm256_shuffle_ps(t[h], t[h + 2], _MM_SHUFFLE(1, 0, 1, 0));
    r[h + 1] = _mm256_shuffle_ps(t[h], t[h + 2], _MM_SHUFFLE(3, 2, 3, 2));
    r[h + 2] = _mm256_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(1, 0, 1, 0));
    r[h + 3] = _mm256_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int j = 0; j < 4; ++j) {
    _mm256_storeu_ps(dst + j * w, _mm256_permute2f128_ps(r[j], r[j + 4], 0x20));
    _mm256_storeu_ps(dst + (j + 4) * w,
                     _mm256_permute2f128_ps(r[j], r[j + 4], 0x31));
  }
}

const bool kHasAvx = __builtin_cpu_supports("avx");
#endif

/// dst[p*w + r] = src[r*ld + p] for r < rows, p < kb, and 0 for rows <= r < w:
/// the packing of operands whose micro-panel rows are contiguous along k
/// (A untransposed, B transposed). Whole 8x8 blocks go through registers.
void pack_transposed(const float* src, std::int64_t ld, std::int64_t rows,
                     std::int64_t kb, std::int64_t w, float* dst) {
  std::int64_t r0 = 0;
#ifdef FP_GEMM_X86
  if (kHasAvx) {
    for (; r0 + 8 <= rows; r0 += 8) {
      std::int64_t p = 0;
      for (; p + 8 <= kb; p += 8)
        transpose8x8(src + r0 * ld + p, ld, dst + p * w + r0, w);
      for (; p < kb; ++p)
        for (std::int64_t r = r0; r < r0 + 8; ++r)
          dst[p * w + r] = src[r * ld + p];
    }
  }
#endif
  for (std::int64_t p = 0; p < kb; ++p) {
    for (std::int64_t r = r0; r < rows; ++r) dst[p * w + r] = src[r * ld + p];
    for (std::int64_t r = rows; r < w; ++r) dst[p * w + r] = 0.0f;
  }
}

/// Packs op(A)[i0:i0+mb, p0:p0+kb] into mr-row micro-panels, zero-padding the
/// ragged last panel so the microkernel never branches on row count.
void pack_a(const float* a, bool ta, std::int64_t m, std::int64_t k,
            std::int64_t i0, std::int64_t mb, std::int64_t p0, std::int64_t kb,
            std::int64_t mr, float* dst) {
  for (std::int64_t ir = 0; ir < mb; ir += mr) {
    const std::int64_t rows = std::min(mr, mb - ir);
    if (!ta) {
      pack_transposed(a + (i0 + ir) * k + p0, k, rows, kb, mr, dst);
    } else {
      // A stored [k, m]: rows of op(A) are contiguous along p's stride m.
      for (std::int64_t p = 0; p < kb; ++p) {
        const float* ap = a + (p0 + p) * m + i0 + ir;
        for (std::int64_t r = 0; r < rows; ++r) dst[p * mr + r] = ap[r];
        for (std::int64_t r = rows; r < mr; ++r) dst[p * mr + r] = 0.0f;
      }
    }
    dst += mr * kb;
  }
}

/// Packs op(B)[p0:p0+kb, j0:j0+nb] into nr-column micro-panels, zero-padded.
void pack_b(const float* b, bool tb, std::int64_t k, std::int64_t n,
            std::int64_t p0, std::int64_t kb, std::int64_t j0, std::int64_t nb,
            std::int64_t nr, float* dst) {
  for (std::int64_t jr = 0; jr < nb; jr += nr) {
    const std::int64_t cols = std::min(nr, nb - jr);
    if (!tb) {
      for (std::int64_t p = 0; p < kb; ++p) {
        const float* bp = b + (p0 + p) * n + j0 + jr;
        for (std::int64_t c = 0; c < cols; ++c) dst[p * nr + c] = bp[c];
        for (std::int64_t c = cols; c < nr; ++c) dst[p * nr + c] = 0.0f;
      }
    } else {
      // B stored [n, k]: op(B) columns are contiguous rows of the storage.
      pack_transposed(b + (j0 + jr) * k + p0, k, cols, kb, nr, dst);
    }
    dst += nr * kb;
  }
}

/// The scalar edge of the 6x16 kernels: a ragged tile spilled to `tile`.
template <std::int64_t MR, std::int64_t NR>
inline void store_edge(const float (&tile)[MR][NR], float* c, std::int64_t ldc,
                       float alpha, std::int64_t rows, std::int64_t cols,
                       bool store) {
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t j = 0; j < cols; ++j) {
      float& cv = c[r * ldc + j];
      cv = (store ? 0.0f : cv) + alpha * tile[r][j];
    }
}

// ---- portable 6x16 microkernel ---------------------------------------------

constexpr std::int64_t GEN_MR = 6, GEN_NR = 16;

void kernel_generic(std::int64_t kb, const float* pa, const float* pb,
                    std::int64_t ldb, float* c, std::int64_t ldc, float alpha,
                    std::int64_t rows, std::int64_t cols, bool store) {
  float acc[GEN_MR][GEN_NR] = {};
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* ap = pa + p * GEN_MR;
    const float* bp = pb + p * ldb;
    for (std::int64_t r = 0; r < GEN_MR; ++r) {
      const float av = ap[r];
      for (std::int64_t j = 0; j < GEN_NR; ++j) acc[r][j] += av * bp[j];
    }
  }
  store_edge(acc, c, ldc, alpha, rows, cols, store);
}

#ifdef FP_GEMM_X86

// ---- AVX2+FMA 6x16 microkernel ---------------------------------------------

__attribute__((target("avx2,fma"))) void kernel_avx2(
    std::int64_t kb, const float* pa, const float* pb, std::int64_t ldb,
    float* c, std::int64_t ldc, float alpha, std::int64_t rows,
    std::int64_t cols, bool store) {
  __m256 acc[GEN_MR][2];
  for (std::int64_t r = 0; r < GEN_MR; ++r)
    acc[r][0] = acc[r][1] = _mm256_setzero_ps();
  for (std::int64_t p = 0; p < kb; ++p) {
    const __m256 b0 = _mm256_loadu_ps(pb + p * ldb);
    const __m256 b1 = _mm256_loadu_ps(pb + p * ldb + 8);
    const float* ap = pa + p * GEN_MR;
    for (std::int64_t r = 0; r < GEN_MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  const __m256 va = _mm256_set1_ps(alpha);
  if (rows == GEN_MR && cols == GEN_NR) {
    for (std::int64_t r = 0; r < GEN_MR; ++r) {
      float* cr = c + r * ldc;
      const __m256 c0 = store ? _mm256_setzero_ps() : _mm256_loadu_ps(cr);
      const __m256 c1 = store ? _mm256_setzero_ps() : _mm256_loadu_ps(cr + 8);
      _mm256_storeu_ps(cr, _mm256_fmadd_ps(va, acc[r][0], c0));
      _mm256_storeu_ps(cr + 8, _mm256_fmadd_ps(va, acc[r][1], c1));
    }
    return;
  }
  alignas(32) float tile[GEN_MR][GEN_NR];
  for (std::int64_t r = 0; r < GEN_MR; ++r) {
    _mm256_store_ps(tile[r], acc[r][0]);
    _mm256_store_ps(tile[r] + 8, acc[r][1]);
  }
  store_edge(tile, c, ldc, alpha, rows, cols, store);
}

// ---- AVX-512F MRx(16*NV) microkernels --------------------------------------
// 14x32: 28 zmm accumulators + 2 B vectors + 1 broadcast = 31 of 32
// registers. 8x48: 24 accumulators + 3 B vectors + 1 broadcast = 28.
// Ragged tiles store through lane masks with the same fma as full ones.
// Packed panels are zero-padded to nr and load whole vectors at the
// constant stride nr; an in-place B strides by ldb, and only its ragged last
// panel loads through lane masks.

enum class BRead { kPacked, kInPlace, kInPlaceTail };

// The k loop starts on a cache line: placed 8 bytes past a 32-byte
// boundary, the 8x48 loop ran 4% slower on 4608x128x512 TN.
template <int MR, int NV, BRead kRead>
__attribute__((target("avx512f"), optimize("align-loops=64"))) void
kernel_avx512(std::int64_t kb, const float* pa, const float* pb,
              std::int64_t ldb, float* c, std::int64_t ldc, float alpha,
              std::int64_t rows, std::int64_t cols, bool store) {
  __mmask16 mask[NV];
  for (int v = 0; v < NV; ++v) {
    const std::int64_t lanes = std::clamp<std::int64_t>(cols - 16 * v, 0, 16);
    mask[v] = static_cast<__mmask16>((1u << lanes) - 1u);
  }
  constexpr int NR = 16 * NV;
  if constexpr (kRead == BRead::kPacked) ldb = NR;
  __m512 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_ps();
  for (std::int64_t p = 0; p < kb; ++p) {
    __m512 bv[NV];
    for (int v = 0; v < NV; ++v)
      bv[v] = kRead == BRead::kInPlaceTail
                  ? _mm512_maskz_loadu_ps(mask[v], pb + p * ldb + 16 * v)
                  : _mm512_loadu_ps(pb + p * ldb + 16 * v);
    const float* ap = pa + p * MR;
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(ap[r]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  const __m512 va = _mm512_set1_ps(alpha);
  for (int r = 0; r < MR; ++r) {
    if (r >= rows) break;
    float* cr = c + r * ldc;
    for (int v = 0; v < NV; ++v) {
      const __m512 base = store ? _mm512_setzero_ps()
                                : _mm512_maskz_loadu_ps(mask[v], cr + 16 * v);
      _mm512_mask_storeu_ps(cr + 16 * v, mask[v],
                            _mm512_fmadd_ps(va, acc[r][v], base));
    }
  }
}

#endif  // FP_GEMM_X86

/// The wide tile every shape may use, and on AVX-512 a narrow-M alternative.
struct KernelSet {
  KernelConfig wide;
  KernelConfig narrow;
  bool has_narrow = false;
};

KernelSet pick_kernels() {
#ifdef FP_GEMM_X86
  if (__builtin_cpu_supports("avx512f"))
    // kc keeps one packed A micro-panel (14*176*4 ~ 10 KB) plus one packed B
    // micro-panel (32*176*4 ~ 22 KB, 48*176*4 ~ 33 KB) inside a 48 KB L1d.
    // Both tiles share kc (the summation order) and mc (the row split).
    return {{14, 32, /*kc=*/176, /*mc=*/14 * 8, /*nc=*/2048,
             &kernel_avx512<14, 2, BRead::kPacked>,
             &kernel_avx512<14, 2, BRead::kInPlace>,
             &kernel_avx512<14, 2, BRead::kInPlaceTail>},
            {8, 48, /*kc=*/176, /*mc=*/14 * 8, /*nc=*/48 * 43,
             &kernel_avx512<8, 3, BRead::kPacked>,
             &kernel_avx512<8, 3, BRead::kInPlace>,
             &kernel_avx512<8, 3, BRead::kInPlaceTail>},
            true};
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return {{GEN_MR, GEN_NR, /*kc=*/256, /*mc=*/72, /*nc=*/2048, &kernel_avx2},
            {},
            false};
#endif
  return {{GEN_MR, GEN_NR, /*kc=*/256, /*mc=*/72, /*nc=*/2048, &kernel_generic},
          {},
          false};
}

const KernelSet kKernels = pick_kernels();

/// The tile that pads fewer rows of an m-row op(A); ties keep the wide one.
const KernelConfig& config_for(std::int64_t m) {
  const auto pad = [m](const KernelConfig& k) { return round_up(m, k.mr) - m; };
  if (kKernels.has_narrow && pad(kKernels.narrow) < pad(kKernels.wide))
    return kKernels.narrow;
  return kKernels.wide;
}

/// Kernels with an in-place variant read op(B) in place up to this many
/// micro-rows of op(A); past it a packed panel is reused by enough rows to
/// repay its copy (the BM_GemmShapes sweep behind the value is in
/// DESIGN.md §2.2).
constexpr std::int64_t kInPlaceBRows = 8;

/// Panels at most this deep walk their tiles row panel outermost.
constexpr std::int64_t kShallowKb = 32;

/// `floats` floats of a grow-only buffer, starting on a 64-byte boundary so
/// that packed panels (rows of 32 or 48 floats) load whole cache lines.
float* cache_aligned(std::vector<float>& buf, std::int64_t floats) {
  buf.resize(static_cast<std::size_t>(floats) + 15);
  const auto at = reinterpret_cast<std::uintptr_t>(buf.data());
  return reinterpret_cast<float*>((at + 63) & ~std::uintptr_t{63});
}

/// Per-thread packing buffers. Safe because a nested gemm runs entirely
/// inline on its caller's thread, and worker-owned buffers are only touched
/// by their own thread.
float* pack_buffer_a(std::int64_t floats) {
  thread_local std::vector<float> buf;
  return cache_aligned(buf, floats);
}
float* pack_buffer_b(std::int64_t floats) {
  thread_local std::vector<float> buf;
  return cache_aligned(buf, floats);
}

/// One KC x NC panel of op(B) as the microkernels read it: micro-panel
/// jr / nr starts at data + (jr / nr) * step, its rows ld apart; a ragged
/// last micro-panel goes to `tail`, the others to `full`.
struct BPanel {
  const float* data;
  std::int64_t ld, step;
  MicroKernel full, tail;
};

/// All (jr, ir) tiles of one (packed A block, B panel) pair.
void run_block(const KernelConfig& cfg, const float* packed_a, std::int64_t mb,
               const BPanel& bp, std::int64_t nb, std::int64_t kb,
               float* c_block, std::int64_t ldc, float alpha, bool store,
               std::int64_t jr_begin, std::int64_t jr_end) {
  const auto tile = [&](std::int64_t ir, std::int64_t jr) {
    const std::int64_t cols = std::min(cfg.nr, nb - jr);
    (cols < cfg.nr ? bp.tail : bp.full)(
        kb, packed_a + (ir / cfg.mr) * cfg.mr * kb,
        bp.data + (jr / cfg.nr) * bp.step, bp.ld, c_block + ir * ldc + jr, ldc,
        alpha, std::min(cfg.mr, mb - ir), cols, store);
  };
  if (kb <= kShallowKb) {
    for (std::int64_t ir = 0; ir < mb; ir += cfg.mr)
      for (std::int64_t jr = jr_begin; jr < jr_end; jr += cfg.nr) tile(ir, jr);
  } else {
    for (std::int64_t jr = jr_begin; jr < jr_end; jr += cfg.nr)
      for (std::int64_t ir = 0; ir < mb; ir += cfg.mr) tile(ir, jr);
  }
}

}  // namespace

void gemm(bool transpose_a, bool transpose_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b, float beta,
          float* c) {
  FP_TRACE_KERNEL("gemm", "mnk", m * n * k);
  static obs::Counter& calls = obs::counter("kernel.gemm_calls");
  calls.add();
  if (m <= 0 || n <= 0) return;
  const bool product = k > 0 && alpha != 0.0f;
  if (beta == 0.0f) {
    // With a product the first KC panel overwrites C instead.
    if (!product)
      std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  if (!product) return;

  const KernelConfig& cfg = config_for(m);
  const std::int64_t row_blocks = (m + cfg.mc - 1) / cfg.mc;
  // Row blocks feed the pool when there are enough of them; otherwise (wide
  // outputs with few rows, the batched-conv shape) the whole A block is
  // packed once and B's column micro-panels are spread instead.
  const bool split_rows = row_blocks >= core::num_threads();
  const bool b_in_place = cfg.in_place && !transpose_b &&
                          round_up(m, cfg.mr) / cfg.mr <= kInPlaceBRows;

  for (std::int64_t jc = 0; jc < n; jc += cfg.nc) {
    const std::int64_t nb = std::min(cfg.nc, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += cfg.kc) {
      const std::int64_t kb = std::min(cfg.kc, k - pc);
      const bool store = beta == 0.0f && pc == 0;
      BPanel bp{b + pc * n + jc, n, cfg.nr, cfg.in_place, cfg.in_place_tail};
      if (!b_in_place) {
        float* packed_b = pack_buffer_b(round_up(nb, cfg.nr) * kb);
        pack_b(b, transpose_b, k, n, pc, kb, jc, nb, cfg.nr, packed_b);
        bp = {packed_b, cfg.nr, cfg.nr * kb, cfg.kernel, cfg.kernel};
      }

      if (split_rows) {
        core::parallel_for(0, row_blocks, 1, [&](std::int64_t b0, std::int64_t b1) {
          float* packed_a = pack_buffer_a(round_up(cfg.mc, cfg.mr) * kb);
          for (std::int64_t blk = b0; blk < b1; ++blk) {
            const std::int64_t ic = blk * cfg.mc;
            const std::int64_t mb = std::min(cfg.mc, m - ic);
            pack_a(a, transpose_a, m, k, ic, mb, pc, kb, cfg.mr, packed_a);
            run_block(cfg, packed_a, mb, bp, nb, kb, c + ic * n + jc,
                      n, alpha, store, 0, nb);
          }
        });
      } else {
        float* packed_a = pack_buffer_a(round_up(m, cfg.mr) * kb);
        pack_a(a, transpose_a, m, k, 0, m, pc, kb, cfg.mr, packed_a);
        const std::int64_t col_blocks = (nb + cfg.nr - 1) / cfg.nr;
        core::parallel_for(0, col_blocks, 1, [&](std::int64_t b0, std::int64_t b1) {
          run_block(cfg, packed_a, m, bp, nb, kb, c + jc, n, alpha,
                    store, b0 * cfg.nr, std::min(nb, b1 * cfg.nr));
        });
      }
    }
  }
}

}  // namespace fp
