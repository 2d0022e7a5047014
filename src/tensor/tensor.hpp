// A minimal dense float32 tensor with value semantics.
//
// Storage is always contiguous row-major. Shapes use int64_t extents. The
// tensor is the single currency of the library: layer activations, parameters,
// gradients, datasets and adversarial perturbations are all Tensors.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mem/arena.hpp"
#include "tensor/rng.hpp"

namespace fp {

class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::int64_t> shape);
  Tensor(std::initializer_list<std::int64_t> shape)
      : Tensor(std::vector<std::int64_t>(shape)) {}

  /// Tag of the constructor below.
  struct Uninit {};
  /// Allocates the same tracked bytes as Tensor(shape) but leaves them as
  /// the allocator returned them: only for outputs that a kernel overwrites
  /// in full before anyone reads them.
  Tensor(std::vector<std::int64_t> shape, Uninit);

  // ---- factories -----------------------------------------------------------
  static Tensor zeros(std::vector<std::int64_t> shape) { return Tensor(std::move(shape)); }
  static Tensor full(std::vector<std::int64_t> shape, float value);
  static Tensor ones(std::vector<std::int64_t> shape) { return full(std::move(shape), 1.0f); }
  static Tensor randn(std::vector<std::int64_t> shape, Rng& rng, float stddev = 1.0f);
  static Tensor rand_uniform(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi);
  static Tensor from_vector(std::vector<std::int64_t> shape, std::vector<float> values);

  // ---- shape ---------------------------------------------------------------
  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const { return shape_.at(i); }
  std::size_t ndim() const { return shape_.size(); }
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }
  std::string shape_str() const;

  /// Reinterprets the buffer with a new shape of identical element count.
  Tensor reshape(std::vector<std::int64_t> new_shape) const;

  // ---- element access ------------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// Bounds-checked 4-D accessors for NCHW tensors (debug/test convenience).
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w);
  float at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const;
  float& at2(std::int64_t r, std::int64_t c);
  float at2(std::int64_t r, std::int64_t c) const;

  // ---- in-place arithmetic -------------------------------------------------
  Tensor& fill(float value);
  Tensor& add_(const Tensor& other);              ///< this += other
  Tensor& sub_(const Tensor& other);              ///< this -= other
  Tensor& mul_(const Tensor& other);              ///< elementwise this *= other
  Tensor& add_scaled_(const Tensor& other, float alpha);  ///< this += alpha*other
  Tensor& scale_(float alpha);                    ///< this *= alpha
  Tensor& add_scalar_(float alpha);               ///< this += alpha
  Tensor& clamp_(float lo, float hi);
  Tensor& relu_();
  Tensor& sign_();                                ///< elementwise sign (0 maps to 0)
  Tensor& zero_() { return fill(0.0f); }

  // ---- functional arithmetic ----------------------------------------------
  Tensor add(const Tensor& other) const;
  Tensor sub(const Tensor& other) const;
  Tensor mul(const Tensor& other) const;
  Tensor scaled(float alpha) const;

  // ---- reductions ----------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  float abs_max() const;   ///< ℓ∞ norm
  float l2_norm() const;   ///< ℓ2 norm of the flattened tensor
  float dot(const Tensor& other) const;
  std::int64_t argmax() const;
  /// Row-wise argmax of a [rows, cols] matrix (predicted class per sample).
  std::vector<std::int64_t> argmax_rows() const;

  /// Per-sample ℓ2 norms of a [N, ...] batch (norm over all non-batch dims).
  std::vector<float> row_l2_norms() const;
  /// Scales each sample of a [N, ...] batch by its own factor.
  Tensor& scale_rows_(const std::vector<float>& factors);

  /// Slices `count` samples starting at `start` along the leading dimension.
  Tensor slice_rows(std::int64_t start, std::int64_t count) const;
  /// Copies `src` into rows [start, start+src.dim(0)).
  void set_rows(std::int64_t start, const Tensor& src);

 private:
  void check_same_shape(const Tensor& other, const char* op) const;
  std::vector<std::int64_t> shape_;
  std::int64_t numel_ = 0;
  /// mem::TrackedAlloc whose value-initialization is a no-op, so
  /// `data_(n)` leaves the storage unwritten (the Uninit constructor); every
  /// other path constructs its elements from explicit values.
  template <class T>
  struct StorageAlloc : mem::TrackedAlloc<T> {
    template <class U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  /// Storage routes through the memory subsystem: inside a training-time
  /// mem::ClientMemScope it comes from the bound arena (and is counted
  /// against the client's budget), otherwise it is a plain aligned heap
  /// allocation.
  std::vector<float, StorageAlloc<float>> data_;
};

}  // namespace fp
