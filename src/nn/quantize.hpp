// Low-bit training support (Zhong et al. 2022), the second §8 extension.
//
// Two pieces:
//  * fake-quantization utilities (symmetric per-tensor int-k simulation)
//    used to emulate low-bit forward passes during training, and
//  * the memory-accounting hook: low-bit training stores parameters and
//    activations at `bits` instead of 32, shrinking the ZeRO terms by
//    bits/32. `low_bit_mem_bytes` composes with the cascade partitioner so
//    Rmin budgets can be evaluated under quantized training (the
//    `bench_paper extensions` table sweeps this).
#pragma once

#include <cstdint>

#include "sysmodel/layer_spec.hpp"
#include "tensor/tensor.hpp"

namespace fp::nn {

/// Symmetric per-tensor fake quantization to `bits` (2..16): rounds values
/// to the int-k grid spanning [-absmax, absmax] and returns the dequantized
/// tensor. bits >= 16 returns the input unchanged.
Tensor fake_quantize(const Tensor& t, int bits);

/// Largest elementwise deviation introduced by fake_quantize — bounded by
/// half a quantization step (absmax / (2^(bits-1) - 1) / 2).
float quantization_error_bound(const Tensor& t, int bits);

/// Memory requirement of training atoms [begin, end) when parameters and
/// activations are stored at `bits` bits (gradients and momentum stay fp32,
/// the conservative convention of low-bit training systems).
std::int64_t low_bit_mem_bytes(const sys::ModelSpec& model, std::size_t begin,
                               std::size_t end, std::int64_t batch_size,
                               bool with_aux_head, int bits);

}  // namespace fp::nn
