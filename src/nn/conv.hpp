// 2-D convolution layer (square kernels), batched im2col + GEMM
// implementation: fp::im2col unfolds a tile of samples into a
// [C_in*K*K, n*H_out*W_out] column matrix (span copies, see tensor/ops.hpp),
// one GEMM per direction covers the tile, and fp::col2im folds the input
// gradient back, bit-identically to the seed's per-sample loops. Under an
// InputGradScope (attack steps) a tile is as many samples as fit
// kTileUnfoldBytes of unfold, so each tile stays in L2 from unfold to GEMM
// to fold, and several tiles spread over the pool; otherwise the tile is
// the whole batch, whose unfold the weight-gradient GEMM reads. Tiles split
// GEMM columns only, never K, so every output is the same for any tile
// size. The bias add / grad_bias reduction are folded into the parallel
// gather/scatter passes. The geometry is validated: the constructor
// rejects kernel < 1, stride < 1 and padding < 0, and forward rejects an
// input smaller than the kernel after padding.
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "tensor/ops.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/winograd.hpp"

namespace fp::nn {

class Conv2d final : public Layer {
 public:
  /// Kaiming-uniform initialized convolution. Input is NCHW.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t stride, std::int64_t padding, Rng& rng, bool bias = true);

  /// Unfold bytes per sample tile under an InputGradScope: one tile's
  /// im2col columns, its GEMM output and the packed panels stay in a
  /// core's L2 between the phases.
  static constexpr std::int64_t kTileUnfoldBytes = 256 * 1024;

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void drop_cached_activations() override;

  std::vector<Tensor*> parameters() override;
  std::vector<Tensor*> gradients() override;
  std::string name() const override { return "Conv2d"; }

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return padding_; }
  bool has_bias() const { return has_bias_; }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  /// forward() under an active compute::InferenceScope: Winograd and/or int8
  /// routing, no activation caching (backward through it would be a bug).
  Tensor forward_inference(const Tensor& x);

  std::int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Tensor weight_;       ///< [out, in, k, k]
  Tensor bias_;         ///< [out]
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_; ///< NCHW input from the last forward
  /// scratch_cols_ holds the whole unfold of cached_input_ (a forward under
  /// an InputGradScope leaves only its last tile there).
  bool unfold_whole_ = false;

  // Grow-only scratch buffers reused across forward/backward calls (a model
  // instance is only ever driven by one thread at a time). Not part of the
  // layer's parameter/buffer state. Tracked so training-time high-water
  // measurements see them (mem subsystem).
  using Scratch = std::vector<float, mem::TrackedAlloc<float>>;
  // Sized for the whole batch (the planner prices them so); sample tiles
  // use the front, or a chunk of tiles on a pool thread its own slice.
  Scratch scratch_cols_;    ///< im2col of the minibatch [rows, N*oh*ow]
  Scratch scratch_iocols_;  ///< output/grad-output as [out_c, N*oh*ow]
  Scratch scratch_grad_cols_;

  // Inference-path caches (DESIGN.md §8), keyed by a content hash of the
  // weights so a frozen layer transforms/quantizes once and an updated layer
  // rebuilds on its next inference forward. The hash itself is only
  // recomputed when compute::weights_epoch() moves (weights are immutable
  // while an InferenceScope is active), so steady-state eval forwards skip
  // even the hash pass.
  Scratch scratch_wino_v_;  ///< V slabs [16, tiles, in_c]
  Scratch scratch_wino_m_;  ///< M slabs [16, out_c, tiles]
  WinogradPlan wino_plan_;
  std::uint64_t wino_hash_ = 0;
  std::uint64_t wino_epoch_ = 0;
  QuantizedMat qweight_;    ///< im2col-layout weights [out_c, in_c*k*k]
  std::uint64_t qweight_hash_ = 0;
  std::uint64_t qweight_epoch_ = 0;
};

}  // namespace fp::nn
