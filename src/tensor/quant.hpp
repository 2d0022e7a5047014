// The library's single quantization-grid implementation.
//
// Every quantizer in the repo rounds to one of two grids:
//   * symmetric: x ~ step * q, q in [-L, L]  (fake-quantized training, and
//     the int8 GEMM packs, where L = 127), and
//   * affine:    x ~ lo + scale * q, q in [0, 255]  (the wire codec, which
//     must cover asymmetric blob ranges exactly at the endpoints).
// Both share one error bound: a nearest-rounding grid is off by at most half
// a step. nn::fake_quantize, comm::Int8Codec, and the qgemm packing all build
// on these helpers so the grids cannot drift apart.
#pragma once

#include <cstdint>

namespace fp::quant {

/// Elements per quantization block of the int8 GEMM packs. One fp32 scale is
/// stored per block, so quantization error tracks the local dynamic range
/// instead of the whole row's. 32 = one AVX2 int8 vector per block.
inline constexpr std::int64_t kBlock = 32;

/// Signed levels per side of the symmetric `bits` grid: 2^(bits-1) - 1.
/// int8 uses ±127 (never -128, which would overflow the maddubs kernels).
float symmetric_levels(int bits);

/// Step of the symmetric grid spanning [-absmax, absmax] at `bits`.
float symmetric_step(float absmax, int bits);

/// Rounds one value to the symmetric grid (returns the dequantized value).
float symmetric_round(float v, float step);

/// Max elementwise deviation of nearest-rounding to a grid with this step.
float error_bound(float step);

/// The affine 8-bit grid of the wire codec: x ~ lo + scale * q, q in
/// [0, 255]. Parameters are derived in double precision so encode/decode are
/// reproducible across compilers (the codec's historical convention).
struct AffineGrid {
  float lo = 0.0f;
  float scale = 0.0f;
};

AffineGrid affine_grid(float lo, float hi);
std::uint8_t affine_encode(const AffineGrid& g, float x);
float affine_decode(const AffineGrid& g, std::uint8_t q);

/// Quantizes `n` floats to int8 codes in [-127, 127] on the symmetric grid of
/// their absmax; writes the dequantization step (0 for an all-zero block).
/// This is the per-block primitive of the GEMM packs.
void quantize_block_int8(const float* x, std::int64_t n, std::int8_t* codes,
                         float* step);

}  // namespace fp::quant
