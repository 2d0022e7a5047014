// Channel-sliced sub-model extraction for partial-training FL.
//
// HeteroFL (Diao et al. 2020), Federated Dropout (Wen et al. 2022), and
// FedRolex (Alam et al. 2022) let a memory-constrained client train a
// narrow sub-model of the global network: every conv/linear layer keeps only
// a subset of its output channels, and the server aggregates trained
// sub-models back into the full model by partial average (each parameter is
// averaged over the clients that actually trained it). The three methods
// differ only in how the kept-channel window is chosen:
//   kStatic  — always the first ceil(r*C) channels (HeteroFL),
//   kRandom  — a fresh random subset every round (FedDrop),
//   kRolling — a cyclic window advancing with the round index (FedRolex).
#pragma once

#include <cstdint>
#include <vector>

#include "models/built_model.hpp"
#include "sysmodel/layer_spec.hpp"

namespace fp::models {

enum class SliceScheme { kStatic, kRandom, kRolling };

/// Kept-channel indices (into the global model) for one layer.
struct LayerSlice {
  std::vector<std::int64_t> in;   ///< kept input channels / features
  std::vector<std::int64_t> out;  ///< kept output channels / features
};

struct AtomSlice {
  std::vector<LayerSlice> layers;    ///< aligned with AtomSpec::layers
  std::vector<LayerSlice> shortcut;  ///< aligned with AtomSpec::shortcut
};

struct SlicePlan {
  sys::ModelSpec sliced_spec;     ///< narrow twin of the global spec
  std::vector<AtomSlice> atoms;   ///< aligned with the global spec's atoms
  double ratio = 1.0;
};

/// Builds a slice plan keeping a `ratio` fraction of every hidden width.
/// The input channels of the first layer and the final class outputs are
/// never sliced. `round` drives the rolling window; `rng` the random scheme.
SlicePlan make_slice_plan(const sys::ModelSpec& global, double ratio,
                          SliceScheme scheme, std::int64_t round, Rng& rng);

/// Gathers the sliced sub-model's weights from the global model, laid out
/// as BuiltModel::save_all of plan.sliced_spec.
nn::ParamBlob gather_weights(const SlicePlan& plan, BuiltModel& global_model);

/// Accumulates a trained sliced sub-model, given as its save_all blob, back
/// into global-shaped sums/counts. `acc` and `count` are [atom][tensor],
/// index-aligned with atom.parameters()+buffers() of the global model and
/// pre-sized by the caller (see fed::PartialAccumulator); the global model
/// supplies only the tensor layout. Throws std::invalid_argument when the
/// blob does not hold exactly the sliced sub-model.
void scatter_add_weights(const SlicePlan& plan, BuiltModel& global_model,
                         const nn::ParamBlob& sliced,
                         std::vector<std::vector<Tensor>>& acc,
                         std::vector<std::vector<Tensor>>& count, float weight);

}  // namespace fp::models
