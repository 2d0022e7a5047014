// Shape-level description of layers, atoms, and models.
//
// The systems-plane experiments (memory, FLOPs, partition tables, latency)
// never instantiate tensors: they operate on these pure-data specs, which is
// also how the paper's own simulator produces its numbers. The trainable
// models in src/models generate both a spec and a real layer stack from one
// configuration, so the cost model and the training path cannot drift apart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fp::sys {

/// Per-sample activation shape (channels, height, width). Flattened vectors
/// are represented as {features, 1, 1}.
struct TensorShape {
  std::int64_t c = 0, h = 0, w = 0;
  std::int64_t numel() const { return c * h * w; }
  bool operator==(const TensorShape&) const = default;
};

enum class LayerKind {
  kConv2d,
  kLinear,
  kBatchNorm2d,
  kReLU,
  kMaxPool2d,
  kGlobalAvgPool,
  kFlatten,
};

/// One layer's hyperparameters; which fields are meaningful depends on kind.
struct LayerSpec {
  LayerKind kind = LayerKind::kReLU;
  std::int64_t in_channels = 0;   ///< conv/linear in, bn channels
  std::int64_t out_channels = 0;  ///< conv/linear out
  std::int64_t kernel = 0;        ///< conv/maxpool kernel (square)
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  bool bias = true;

  static LayerSpec conv2d(std::int64_t in, std::int64_t out, std::int64_t k,
                          std::int64_t s, std::int64_t p, bool bias = true);
  static LayerSpec linear(std::int64_t in, std::int64_t out, bool bias = true);
  static LayerSpec batchnorm(std::int64_t channels);
  static LayerSpec relu();
  static LayerSpec maxpool(std::int64_t k, std::int64_t s = -1);
  static LayerSpec global_avg_pool();
  static LayerSpec flatten();
};

/// Output shape of a layer applied to `in`. Throws on incompatible shapes.
TensorShape out_shape(const LayerSpec& spec, const TensorShape& in);

/// Trainable parameter count of one layer (BatchNorm counts gamma+beta).
std::int64_t layer_param_count(const LayerSpec& spec);

/// Multiply-accumulate operations of one forward pass on a single sample.
/// Matches the paper's Table 7/8 convention (MACs, not 2x FLOPs).
std::int64_t layer_forward_macs(const LayerSpec& spec, const TensorShape& in);

/// The indivisible partitioning unit (paper §6.1): a layer for plain
/// networks, a residual block for ResNets. Residual blocks are expressed as
/// the list of their internal layers plus a flag, so the cost model can add
/// the shortcut path.
struct AtomSpec {
  std::string name;
  std::vector<LayerSpec> layers;
  bool residual = false;            ///< wrap `layers` with an identity shortcut
  std::vector<LayerSpec> shortcut;  ///< projection path (may be empty = identity)
};

TensorShape atom_out_shape(const AtomSpec& atom, const TensorShape& in);
std::int64_t atom_param_count(const AtomSpec& atom);
std::int64_t atom_forward_macs(const AtomSpec& atom, const TensorShape& in);
/// Sum of all layer-output activation element counts for one sample,
/// including the shortcut path output (what backward must keep resident).
std::int64_t atom_activation_numel(const AtomSpec& atom, const TensorShape& in);

/// A whole backbone: named atom sequence with an input shape and class count.
struct ModelSpec {
  std::string name;
  TensorShape input;
  std::int64_t num_classes = 0;
  std::vector<AtomSpec> atoms;

  /// Activation shape entering atom `i` (input for i == 0).
  TensorShape shape_before(std::size_t i) const;
  std::int64_t total_params() const;
};

}  // namespace fp::sys
