// Dense kernels shared by the neural-network layers and the attacks:
// GEMM, im2col/col2im for convolution, softmax / cross-entropy, and the
// DLR loss used by AutoAttack-style evaluation.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace fp {

/// C = alpha * op(A) * op(B) + beta * C.
/// A is [M, K] after op, B is [K, N] after op, C is [M, N].
/// transpose_a / transpose_b select op(X) = X^T on the stored layout.
///
/// Cache-blocked and panel-packed (see gemm.cpp); row/column blocks are
/// spread over the shared worker pool. The floating-point summation order of
/// every C element is fixed by the blocking alone, so results are
/// bit-identical for any FP_NUM_THREADS.
void gemm(bool transpose_a, bool transpose_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b, float beta,
          float* c);

/// The seed's straightforward single-threaded loops, kept as the parity
/// oracle for the blocked kernel and as the benchmark baseline. Degenerate
/// dims follow the blocked kernel's contract exactly: m/n <= 0 is a no-op,
/// k <= 0 or alpha == 0 applies beta and skips the product.
void gemm_reference(bool transpose_a, bool transpose_b, std::int64_t m,
                    std::int64_t n, std::int64_t k, float alpha, const float* a,
                    const float* b, float beta, float* c);

struct Conv2dGeometry {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;   ///< square kernel
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t in_h = 0, in_w = 0;

  /// Output extents. Meaningful only when stride >= 1 and the padded input
  /// fits the kernel (in + 2 * padding >= kernel); nn::Conv2d checks both.
  std::int64_t out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }
  /// Rows of the im2col matrix: C_in * K * K.
  std::int64_t col_rows() const { return in_channels * kernel * kernel; }
  /// Columns of the im2col matrix: H_out * W_out.
  std::int64_t col_cols() const { return out_h() * out_w(); }
};

/// Unfolds a batch of n images [n, C, H, W] into one
/// [C*K*K, n*H_out*W_out] column matrix; sample i owns the column slice
/// [i*H_out*W_out, (i+1)*H_out*W_out). Row (c, kh, kw) of a sample is the
/// input plane c shifted by the tap: each output row copies the span of
/// columns whose tap lands inside the image (memcpy at stride 1) and zeroes
/// only the padding edges. The rows are written in row-major order across
/// the batch, split over the worker pool. Pure copying, so the bytes equal
/// im2col_reference's for any partition.
void im2col(const Conv2dGeometry& g, const float* images, std::int64_t n,
            float* columns);

/// The adjoint of im2col: folds the [C*K*K, n*H_out*W_out] column matrix
/// back into images [n, C, H, W], accumulating (+=) into what is there (a
/// gradient fold starts from zeroed images). Every image pixel receives its
/// taps in ascending (kh, kw) order, exactly col2im_reference's additions;
/// the work is split over (sample, input channel) only, never across taps,
/// so the result is bit-identical for any thread count.
void col2im(const Conv2dGeometry& g, const float* columns, std::int64_t n,
            float* images);

/// The seed's scalar per-element loops with the same batched layout and
/// contract, single-threaded: the parity oracle for im2col/col2im and the
/// benchmark baseline, next to gemm_reference.
void im2col_reference(const Conv2dGeometry& g, const float* images,
                      std::int64_t n, float* columns);
void col2im_reference(const Conv2dGeometry& g, const float* columns,
                      std::int64_t n, float* images);

/// Row-wise softmax of logits [N, C].
Tensor softmax(const Tensor& logits);

/// Mean cross-entropy over the batch; labels are class indices.
/// Numerically stable (log-sum-exp).
float cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& labels);

/// Gradient of mean cross-entropy w.r.t. logits: (softmax - onehot)/N.
Tensor cross_entropy_grad(const Tensor& logits,
                          const std::vector<std::int64_t>& labels);

/// Mean cross-entropy against soft target distributions [N, C]
/// (knowledge-distillation objective). Targets must be a valid distribution.
float soft_cross_entropy(const Tensor& logits, const Tensor& targets);
Tensor soft_cross_entropy_grad(const Tensor& logits, const Tensor& targets);

/// Difference-of-Logits-Ratio loss (Croce & Hein 2020), mean over batch.
/// DLR = -(z_y - max_{i != y} z_i) / (z_pi1 - z_pi3), maximized by attacks.
float dlr_loss(const Tensor& logits, const std::vector<std::int64_t>& labels);
Tensor dlr_loss_grad(const Tensor& logits, const std::vector<std::int64_t>& labels);

/// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels);

}  // namespace fp
