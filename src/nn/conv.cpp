#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.hpp"
#include "obs/trace.hpp"
#include "tensor/compute_mode.hpp"

namespace fp::nn {

namespace {
/// Samples per tile of an n-sample batch: the fewest tiles of at most
/// Conv2d::kTileUnfoldBytes (or one sample), evened out so no tile is a
/// runt.
std::int64_t tile_samples(const Conv2dGeometry& g, std::int64_t n) {
  const std::int64_t sample_bytes =
      g.col_rows() * g.col_cols() * static_cast<std::int64_t>(sizeof(float));
  const std::int64_t most =
      std::max<std::int64_t>(1, Conv2d::kTileUnfoldBytes / sample_bytes);
  const std::int64_t tiles = std::max<std::int64_t>(1, (n + most - 1) / most);
  return (n + tiles - 1) / tiles;
}

/// body(i0, tn, s0) for each tile of samples [i0, i0+tn) of an n-sample
/// batch cut into `tile`-sample tiles. Several tiles are spread over the
/// pool, their kernels inline; a chunk of tiles rolls through the scratch
/// columns of its first tile's samples, from sample s0 on, so chunks never
/// share scratch and the whole-batch buffers hold every chunk. One tile runs
/// on the caller, whose kernels use the pool.
template <class Body>
void for_each_tile(std::int64_t n, std::int64_t tile, const Body& body) {
  if (n <= 0) return;
  const auto run = [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t)
      body(t * tile, std::min(tile, n - t * tile), t0 * tile);
  };
  const std::int64_t tiles = (n + tile - 1) / tile;
  if (tiles == 1)
    run(0, 1);
  else
    core::parallel_for(0, tiles, 1, run);
}

/// Scatters [out_c, N*oh*ow] GEMM output back to NCHW, folding in the bias.
void scatter_bias(const float* iocols, float* od, const float* bias,
                  bool has_bias, std::int64_t n, std::int64_t out_channels,
                  std::int64_t ohow, std::int64_t batch_cols) {
  const std::int64_t out_plane = out_channels * ohow;
  core::parallel_for(0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t i = b0; i < b1; ++i)
      for (std::int64_t c = 0; c < out_channels; ++c) {
        const float* src = iocols + c * batch_cols + i * ohow;
        float* dst = od + i * out_plane + c * ohow;
        const float b = has_bias ? bias[c] : 0.0f;
        for (std::int64_t p = 0; p < ohow; ++p) dst[p] = src[p] + b;
      }
  });
}

/// "(in->out, kernel k, stride s, padding p)" for error messages.
std::string geometry_string(std::int64_t in_channels, std::int64_t out_channels,
                            std::int64_t kernel, std::int64_t stride,
                            std::int64_t padding) {
  return "(" + std::to_string(in_channels) + "->" +
         std::to_string(out_channels) + ", kernel " + std::to_string(kernel) +
         ", stride " + std::to_string(stride) + ", padding " +
         std::to_string(padding) + ")";
}

/// Validates the geometry before any member tensor is shaped from it.
std::int64_t checked_kernel(std::int64_t in_channels, std::int64_t out_channels,
                            std::int64_t kernel, std::int64_t stride,
                            std::int64_t padding) {
  if (kernel < 1 || stride < 1 || padding < 0)
    throw std::invalid_argument(
        "Conv2d: need kernel >= 1, stride >= 1, padding >= 0, got " +
        geometry_string(in_channels, out_channels, kernel, stride, padding));
  return kernel;
}
}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(checked_kernel(in_channels, out_channels, kernel, stride, padding)),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  // Kaiming-uniform: U(-b, b) with b = sqrt(6 / fan_in) (gain for ReLU nets).
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_channels * kernel * kernel));
  for (auto& v : weight_.span()) v = rng.uniform(-bound, bound);
}

Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  FP_TRACE_KERNEL("conv2d_fwd", "batch", x.ndim() == 4 ? x.dim(0) : 0);
  if (x.ndim() != 4 || x.dim(1) != in_channels_)
    throw std::invalid_argument("Conv2d: bad input " + x.shape_str());
  // A window that does not fit even once would give a truncated (or
  // negative) output extent computed over out-of-range taps.
  if (x.dim(2) + 2 * padding_ < kernel_ || x.dim(3) + 2 * padding_ < kernel_)
    throw std::invalid_argument(
        "Conv2d " +
        geometry_string(in_channels_, out_channels_, kernel_, stride_,
                        padding_) +
        ": input " + x.shape_str() + " is smaller than the kernel");
  if (compute::int8_active() || compute::winograd_active())
    return forward_inference(x);
  cached_input_ = x;
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  Conv2dGeometry g{in_channels_, out_channels_, kernel_, stride_, padding_, h, w};
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ohow = oh * ow;
  const std::int64_t rows = g.col_rows();
  const std::int64_t batch_cols = n * ohow;

  // scatter_bias writes every element of out.
  Tensor out({n, out_channels_, oh, ow}, Tensor::Uninit{});
  scratch_cols_.resize(static_cast<std::size_t>(rows * batch_cols));
  scratch_iocols_.resize(static_cast<std::size_t>(out_channels_ * batch_cols));

  // A backward with parameter gradients needs the whole batch's unfold, so
  // outside an InputGradScope the tile is the whole batch and
  // scratch_cols_ keeps it. Under the scope (attack steps) each tile's
  // unfold is consumed by its GEMM while it is still in L2.
  unfold_whole_ = !compute::input_grad_only();
  const std::int64_t tile = unfold_whole_ ? n : tile_samples(g, n);
  const std::int64_t in_plane = in_channels_ * h * w;
  const std::int64_t out_plane = out_channels_ * ohow;
  for_each_tile(n, tile, [&](std::int64_t i0, std::int64_t tn, std::int64_t s0) {
    // Unfold the tile into [rows, tn*oh*ow] (sample i0+i owns the column
    // slice [i*ohow, (i+1)*ohow)), then one GEMM for the tile:
    // [out_c, rows] x [rows, tn*oh*ow].
    const std::int64_t tile_cols = tn * ohow;
    float* cols = scratch_cols_.data() + rows * s0 * ohow;
    float* iocols = scratch_iocols_.data() + out_channels_ * s0 * ohow;
    im2col(g, x.data() + i0 * in_plane, tn, cols);
    gemm(false, false, out_channels_, tile_cols, rows, 1.0f, weight_.data(),
         cols, 0.0f, iocols);
    scatter_bias(iocols, out.data() + i0 * out_plane, bias_.data(), has_bias_,
                 tn, out_channels_, ohow, tile_cols);
  });
  return out;
}

Tensor Conv2d::forward_inference(const Tensor& x) {
  FP_TRACE_KERNEL("conv2d_infer", "batch", x.dim(0));
  // Inference-only kernels never support a backward: drop the cached input so
  // a stray backward() fails loudly instead of differentiating stale state.
  cached_input_ = Tensor();
  const bool use_int8 = compute::int8_active();
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  Conv2dGeometry g{in_channels_, out_channels_, kernel_, stride_, padding_, h, w};
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ohow = oh * ow;
  Tensor out({n, out_channels_, oh, ow});

  if (compute::winograd_active() && winograd_eligible(g) &&
      winograd_profitable(g, use_int8)) {
    const std::uint64_t epoch = compute::weights_epoch();
    if (wino_epoch_ != epoch || (use_int8 && wino_plan_.uq.empty() &&
                                 winograd_int8_profitable(in_channels_))) {
      const std::uint64_t hash = content_hash_fnv1a(
          weight_.data(),
          static_cast<std::size_t>(weight_.numel()) * sizeof(float));
      if (wino_hash_ != hash || (use_int8 && wino_plan_.uq.empty())) {
        winograd_build_plan(weight_.data(), out_channels_, in_channels_,
                            use_int8, wino_plan_);
        wino_hash_ = hash;
      }
      wino_epoch_ = epoch;
    }
    scratch_wino_v_.resize(static_cast<std::size_t>(winograd_v_elems(g, n)));
    scratch_wino_m_.resize(static_cast<std::size_t>(winograd_m_elems(g, n)));
    winograd_conv_forward(g, x.data(), n, wino_plan_,
                          has_bias_ ? bias_.data() : nullptr, out.data(),
                          use_int8, scratch_wino_v_.data(),
                          scratch_wino_m_.data());
    return out;
  }

  // Ineligible (stride != 1 or kernel != 3) and unprofitable (stem-like or
  // tile-starved, see winograd_profitable) shapes keep the im2col unfold;
  // int8 runs the quantize-on-pack GEMM on the columns when the product is
  // deep enough to amortize it (qgemm_profitable), fp32 the blocked one.
  const std::int64_t rows = g.col_rows();
  const std::int64_t batch_cols = n * ohow;
  scratch_cols_.resize(static_cast<std::size_t>(rows * batch_cols));
  scratch_iocols_.resize(static_cast<std::size_t>(out_channels_ * batch_cols));
  float* cols = scratch_cols_.data();
  im2col(g, x.data(), n, cols);

  if (use_int8 && qgemm_profitable(rows)) {
    const std::uint64_t epoch = compute::weights_epoch();
    if (qweight_epoch_ != epoch || qweight_.rows != out_channels_) {
      const std::uint64_t hash = content_hash_fnv1a(
          weight_.data(),
          static_cast<std::size_t>(weight_.numel()) * sizeof(float));
      if (qweight_hash_ != hash || qweight_.rows != out_channels_) {
        // Weight layout [oc, ic, k, k] is already the im2col [oc, rows]
        // matrix.
        quantize_rows_int8(weight_.data(), out_channels_, rows, rows,
                           qweight_);
        qweight_hash_ = hash;
      }
      qweight_epoch_ = epoch;
    }
    thread_local QuantizedMat qcols;
    quantize_cols_int8(cols, rows, batch_cols, batch_cols, qcols);
    qgemm_nt(out_channels_, batch_cols, qweight_, qcols,
             scratch_iocols_.data(), batch_cols);
  } else {
    gemm(false, false, out_channels_, batch_cols, rows, 1.0f, weight_.data(),
         cols, 0.0f, scratch_iocols_.data());
  }

  scatter_bias(scratch_iocols_.data(), out.data(), bias_.data(), has_bias_, n,
               out_channels_, ohow, batch_cols);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  FP_TRACE_KERNEL("conv2d_bwd", "batch", grad_out.dim(0));
  const Tensor& x = cached_input_;
  if (x.empty()) throw std::logic_error("Conv2d::backward before forward");
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  Conv2dGeometry g{in_channels_, out_channels_, kernel_, stride_, padding_, h, w};
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ohow = oh * ow;
  const std::int64_t rows = g.col_rows();
  const std::int64_t batch_cols = n * ohow;
  const std::int64_t out_plane = out_channels_ * ohow;

  scratch_cols_.resize(static_cast<std::size_t>(rows * batch_cols));
  scratch_iocols_.resize(static_cast<std::size_t>(out_channels_ * batch_cols));
  scratch_grad_cols_.resize(static_cast<std::size_t>(rows * batch_cols));

  // Under an InputGradScope only grad_in is wanted: the grad_bias reduction
  // and the grad_W GEMM are skipped, and the work goes tile by tile. With
  // parameter gradients the tile is the whole batch (one grad_W GEMM over
  // the whole unfold). Read on this thread, not in a pool body.
  const bool param_grads = !compute::input_grad_only();
  const bool bias_grad = param_grads && has_bias_;
  const std::int64_t tile = param_grads ? n : tile_samples(g, n);
  const std::int64_t in_plane = in_channels_ * h * w;

  // A forward under the scope left only its last tile in scratch_cols_.
  if (param_grads && !unfold_whole_) {
    im2col(g, x.data(), n, scratch_cols_.data());
    unfold_whole_ = true;
  }

  const float* god = grad_out.data();
  Tensor grad_in({n, in_channels_, h, w});
  for_each_tile(n, tile, [&](std::int64_t i0, std::int64_t tn, std::int64_t s0) {
    const std::int64_t tile_cols = tn * ohow;
    float* iocols = scratch_iocols_.data() + out_channels_ * s0 * ohow;
    float* grad_cols = scratch_grad_cols_.data() + rows * s0 * ohow;
    // Gather grad_out from NCHW into [out_c, tn*oh*ow], folding the grad_bias
    // reduction into the same pass (per channel, samples in fixed order, so
    // the sum is identical for any thread count; bias_grad implies one tile).
    core::parallel_for(0, out_channels_, 1, [&](std::int64_t c0,
                                                std::int64_t c1) {
      for (std::int64_t c = c0; c < c1; ++c) {
        double s = 0.0;
        for (std::int64_t i = 0; i < tn; ++i) {
          const float* src = god + (i0 + i) * out_plane + c * ohow;
          float* dst = iocols + c * tile_cols + i * ohow;
          std::copy(src, src + ohow, dst);
          if (bias_grad)
            for (std::int64_t p = 0; p < ohow; ++p) s += src[p];
        }
        if (bias_grad) grad_bias_[c] += static_cast<float>(s);
      }
    });

    // grad_cols = W^T * go, then fold each sample's slice back to image space.
    gemm(true, false, rows, tile_cols, out_channels_, 1.0f, weight_.data(),
         iocols, 0.0f, grad_cols);
    col2im(g, grad_cols, tn, grad_in.data() + i0 * in_plane);
  });

  // grad_W += go[out_c, N*oh*ow] * cols^T — one GEMM over the whole batch
  // (the one tile's gathered grad_out).
  if (param_grads)
    gemm(false, true, out_channels_, rows, batch_cols, 1.0f,
         scratch_iocols_.data(), scratch_cols_.data(), 1.0f,
         grad_weight_.data());
  return grad_in;
}

void Conv2d::drop_cached_activations() {
  cached_input_ = Tensor();
  unfold_whole_ = false;
  Scratch().swap(scratch_cols_);
  Scratch().swap(scratch_iocols_);
  Scratch().swap(scratch_grad_cols_);
  Scratch().swap(scratch_wino_v_);
  Scratch().swap(scratch_wino_m_);
}

std::vector<Tensor*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::vector<Tensor*> Conv2d::gradients() {
  if (has_bias_) return {&grad_weight_, &grad_bias_};
  return {&grad_weight_};
}

}  // namespace fp::nn
