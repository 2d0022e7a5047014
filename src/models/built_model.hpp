// Instantiates a sys::ModelSpec into real trainable layers.
//
// BuiltModel is the runtime twin of a ModelSpec: one nn::Layer per atom, with
// range-wise forward/backward and per-atom parameter blobs. Cascade learning,
// the FL aggregators, and the attacks all address the model as atom ranges,
// which keeps the training path and the cost model aligned by construction.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "sysmodel/layer_spec.hpp"

namespace fp::models {

/// Creates a single nn layer from its spec.
nn::LayerPtr build_layer(const sys::LayerSpec& spec, Rng& rng);

/// Creates one nn layer per atom (Sequential for plain atoms, BasicBlock for
/// residual atoms).
std::vector<nn::LayerPtr> build_atoms(const sys::ModelSpec& spec, Rng& rng);

class BuiltModel {
 public:
  BuiltModel(sys::ModelSpec spec, Rng& rng);
  /// A replica holding `blob` (save_all layout). The initialization the
  /// blob overwrites draws from Rng(0).
  BuiltModel(sys::ModelSpec spec, std::span<const float> blob);

  const sys::ModelSpec& spec() const { return spec_; }
  std::size_t num_atoms() const { return atoms_.size(); }
  nn::Layer& atom(std::size_t i) { return *atoms_.at(i); }

  /// Forward through atoms [begin, end). `train` selects BN batch statistics.
  Tensor forward_range(std::size_t begin, std::size_t end, const Tensor& x,
                       bool train);
  /// Backward through atoms [begin, end) (reverse order); returns grad wrt
  /// the range input. Requires a matching forward_range beforehand.
  Tensor backward_range(std::size_t begin, std::size_t end, const Tensor& grad);

  Tensor forward(const Tensor& x, bool train) {
    return forward_range(0, atoms_.size(), x, train);
  }

  // ---- activation checkpointing (mem subsystem, DESIGN.md §6) --------------
  /// Partitions forward/backward traversals of the range starting at
  /// `segment_starts.front()` into drop-and-recompute segments: a non-final
  /// segment's layer caches are dropped after its forward and rebuilt (with
  /// BN running-stat updates suppressed) when its backward needs them, so
  /// gradients are bit-identical to plain execution while only one segment's
  /// caches are ever resident. Applies to every matching
  /// forward_range/backward_range pair until cleared. Empty vector = off.
  void set_checkpoint_segments(std::vector<std::size_t> segment_starts);
  bool checkpointing() const { return !ckpt_starts_.empty(); }

  /// Forward through atoms [begin, end), releasing each atom's caches right
  /// after its output is produced — the frozen-prefix forward of cascade
  /// training, which never runs a backward (budget-aware execution only).
  Tensor forward_range_nocache(std::size_t begin, std::size_t end,
                               const Tensor& x, bool train);

  /// Releases the caches/scratch of atoms [begin, end).
  void drop_caches_range(std::size_t begin, std::size_t end);

  std::vector<Tensor*> parameters_range(std::size_t begin, std::size_t end);
  std::vector<Tensor*> gradients_range(std::size_t begin, std::size_t end);
  void zero_grad_range(std::size_t begin, std::size_t end);

  /// Per-atom wire blobs (parameters + BN buffers), the unit of the
  /// partial-average aggregation (paper Eq. 16).
  nn::ParamBlob save_atom(std::size_t i) { return nn::save_blob(*atoms_.at(i)); }
  void load_atom(std::size_t i, std::span<const float> blob) {
    nn::load_blob(*atoms_.at(i), blob);
  }
  /// Whole-model blob (all atoms concatenated).
  nn::ParamBlob save_all();
  void load_all(std::span<const float> blob);
  /// Length of the save_all blob.
  std::size_t blob_size() const { return atom_offsets_.back(); }
  /// Atom `a`'s save_atom blob as a view into a whole-model blob. Throws
  /// unless `blob` has blob_size() floats.
  std::span<const float> atom_view(std::span<const float> blob,
                                   std::size_t a) const;

  /// Switches every BatchNorm running-stat bank (FedRBN dual-BN support).
  void use_bn_bank(int bank);
  /// The bank use_bn_bank last selected (0 for a model without BatchNorm).
  /// save_all carries both banks' statistics but not this choice, so a
  /// replica rebuilt from a blob must copy it.
  int active_bn_bank();
  /// Freezes/unfreezes BatchNorm running-stat updates (attack generation).
  void set_bn_tracking(bool tracking);

  std::int64_t param_count();

 private:
  /// One checkpointed forward/backward pass in flight.
  struct CkptPass {
    std::size_t begin = 0, end = 0;
    bool train = false;
    std::vector<Tensor> seg_inputs;  ///< input of each non-final segment
  };
  /// Throws, naming `what` and both sizes, unless `blob` has blob_size().
  void check_blob_size(std::span<const float> blob, const char* what) const;
  bool ckpt_matches(std::size_t begin, std::size_t end) const;
  std::vector<std::size_t> segment_bounds(std::size_t end) const;

  sys::ModelSpec spec_;
  std::vector<nn::LayerPtr> atoms_;
  /// Where each atom starts in the save_all blob; back() = blob_size().
  std::vector<std::size_t> atom_offsets_;
  std::vector<std::size_t> ckpt_starts_;
  std::optional<CkptPass> ckpt_pass_;
};

}  // namespace fp::models
