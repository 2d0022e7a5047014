// Per-row quantized int8 GEMM for inference-only forwards (DESIGN.md §8).
//
// FBGEMM/QNNPACK-style format: every row of a [rows, k] matrix is quantized
// to int8 on the symmetric grid of its own absmax (quant.hpp), padded with
// zero codes to a multiple of 64 and stored 64-byte aligned, next to one
// fp32 step and the int32 sum of the row's codes. The product reduces to
//   C[i, j] = float(int32 dot of code rows i and j) * step_a[i] * step_b[j]
// — the whole k loop is exact integer arithmetic with a single fp32 rescale
// at the end, so results are bit-identical for any FP_NUM_THREADS and the
// SIMD kernels run at full int8 MAC rate with no per-block rescale inside
// the loop. Weights are quantized once and cached on the layer; activations
// are quantized on pack per forward.
//
// dpbusd multiplies unsigned x signed: the VNNI kernel biases the left
// operand by +128 (one XOR with 0x80) and subtracts 128 * sum(b codes)
// afterwards — that is what the stored code sums are for. Three kernels are
// compiled with function-level target attributes and picked once at startup
// (the PR 1 pattern): AVX-512 VNNI 4x4 tile, AVX2 (maddubs + sign trick)
// 4x2 tile, portable scalar.
#pragma once

#include <cstdint>
#include <new>
#include <vector>

#include "tensor/quant.hpp"

namespace fp {

/// 64-byte aligned storage for the packed code panels (whole cache lines,
/// and AVX-512 vectors never split a line: k_padded is a multiple of 64, so
/// every row starts aligned).
template <class T>
struct Aligned64Alloc {
  using value_type = T;
  Aligned64Alloc() = default;
  template <class U>
  Aligned64Alloc(const Aligned64Alloc<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(64)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(64));
  }
  template <class U>
  friend bool operator==(const Aligned64Alloc&, const Aligned64Alloc<U>&) {
    return true;
  }
};

/// A [rows, k] matrix quantized row-wise to the symmetric int8 grid of each
/// row's absmax. Row i's codes live at codes[i * k_padded] (zero-padded
/// tail), its step at scales[i], the int32 sum of its codes at sums[i].
/// Rows are over-allocated to a multiple of the 4-row kernel tile (zero
/// codes, zero scale/sum) so the microkernels never read out of bounds.
struct QuantizedMat {
  std::int64_t rows = 0;
  std::int64_t k = 0;
  std::int64_t k_padded = 0;  ///< k rounded up to 64
  std::vector<std::int8_t, Aligned64Alloc<std::int8_t>> codes;
  std::vector<float> scales;
  std::vector<std::int32_t> sums;

  float scale(std::int64_t i) const { return scales[static_cast<std::size_t>(i)]; }
  std::int32_t sum(std::int64_t i) const { return sums[static_cast<std::size_t>(i)]; }
};

/// Quantizes the rows of a row-major [rows, k] matrix (row stride `ld`).
/// Parallelized over rows; deterministic (each row is a pure function of its
/// input). Reuses `out`'s storage across calls.
void quantize_rows_int8(const float* src, std::int64_t rows, std::int64_t k,
                        std::int64_t ld, QuantizedMat& out);

/// Quantize-on-pack of the COLUMNS of a row-major [k, n] matrix (row stride
/// `ld`) — the im2col activation pipeline: column j of the source becomes
/// row j of the pack. Streams the source twice (absmax pass, code pass) in
/// 64-column stripes so both passes read rows contiguously; bit-identical
/// to quantize_rows_int8 of the explicit transpose.
void quantize_cols_int8(const float* src, std::int64_t k, std::int64_t n,
                        std::int64_t ld, QuantizedMat& out);

/// C = A * B^T on the quantized packs: C[i, j] = dot(a row i, b row j),
/// C row-major [m, n] with row stride ldc. Degenerate dims follow the
/// blocked gemm's contract at alpha=1, beta=0: m<=0 or n<=0 is a no-op,
/// k<=0 zeroes C and returns.
void qgemm_nt(std::int64_t m, std::int64_t n, const QuantizedMat& a,
              const QuantizedMat& b, float* c, std::int64_t ldc);

/// Name of the int8 microkernel picked at startup ("avx512vnni", "avx2",
/// "generic") — surfaced by bench_micro.
const char* qgemm_kernel_name();

/// True when quantize-on-pack + qgemm beats the blocked fp32 GEMM for a
/// product of depth k. Shallow products (the 3-channel stem's im2col rows:
/// k = 27) pay the activation quantize pass and the per-tile epilogue over
/// too few MACs — measured break-even is well under 64 on VNNI, and the
/// routing layers fall back to fp32 below it (DESIGN.md §8).
bool qgemm_profitable(std::int64_t k);

/// FNV-1a (eight interleaved 64-bit lanes + byte tail) over raw bytes — the
/// layers' cheap cache key for detecting weight changes between inference
/// forwards. Revalidated once per compute::weights_epoch(), not per forward.
std::uint64_t content_hash_fnv1a(const void* data, std::size_t bytes);

/// Upper bound on |qgemm - exact fp32 dot| for one output element, from the
/// packs' stored per-row steps: the int32 dot is exact, so the element error
/// is the sum over k of the cross terms of two half-step-bounded roundings.
/// a_stride / b_stride are the strides between consecutive ELEMENTS of the
/// row (1 for a contiguous row-major row). Used by tests and documented in
/// DESIGN.md §8.
double qgemm_error_bound(const QuantizedMat& a, std::int64_t i,
                         const QuantizedMat& b, std::int64_t j,
                         const float* a_row, std::int64_t a_stride,
                         const float* b_row, std::int64_t b_stride);

}  // namespace fp
