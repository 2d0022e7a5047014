// Layer interface: explicit forward/backward with cached activations.
//
// There is no tape autograd in this library. Each layer caches what it needs
// during forward and implements backward(grad_out) -> grad_in, accumulating
// parameter gradients into its grad tensors. The same backward chain yields
// d(loss)/d(input), which is what PGD-style attacks consume; they run it under
// a compute::InputGradScope, which skips the parameter-gradient work.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fp::nn {

class BatchNorm2d;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. `train` selects training-time behaviour
  /// (batch statistics in BatchNorm). The input is cached for backward.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Propagates the upstream gradient, accumulating into parameter grads,
  /// and returns the gradient w.r.t. the layer input. Must be called after
  /// a matching forward(). While compute::input_grad_only() holds on the
  /// calling thread, the returned gradient is bit-identical but gradients()
  /// are neither computed nor written; read the flag once on the calling
  /// thread, never inside a core::parallel_for body.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Trainable parameters (updated by the optimizer, averaged by FL).
  virtual std::vector<Tensor*> parameters() { return {}; }
  /// Gradients, index-aligned with parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }
  /// Non-trainable state (BatchNorm running statistics), averaged by FL
  /// but never touched by the optimizer.
  virtual std::vector<Tensor*> buffers() { return {}; }

  void zero_grad() {
    for (auto* g : gradients()) g->zero_();
  }

  /// Releases every forward-time cache and scratch buffer (activation
  /// checkpointing drops a segment's caches after its forward and recomputes
  /// them for the backward; see DESIGN.md §6). After a drop, backward() is
  /// invalid until the next forward(). Default: nothing cached.
  virtual void drop_cached_activations() {}

  /// Visits every BatchNorm2d nested in this layer (bank switching, stat
  /// freezing). Default: none.
  virtual void for_each_bn(const std::function<void(BatchNorm2d&)>& fn) {
    (void)fn;
  }

  virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace fp::nn
