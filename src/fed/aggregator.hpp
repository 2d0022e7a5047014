// Server-side aggregation.
//
// BlobAverager implements FedAvg (McMahan et al. 2017) over wire blobs.
// PartialAccumulator implements the partial average of Eq. 16: every global
// parameter element is averaged over exactly the clients that trained it —
// whether because of module assignment (FedProphet) or channel slicing
// (HeteroFL / FedDrop / FedRolex). Elements nobody trained keep their
// previous global value.
#pragma once

#include "models/built_model.hpp"
#include "models/slicing.hpp"
#include "nn/serialize.hpp"

namespace fp::fed {

class BlobAverager {
 public:
  void add(const nn::ParamBlob& blob, float weight);
  bool empty() const { return total_weight_ == 0.0f; }
  /// Weighted mean of everything added so far.
  nn::ParamBlob average() const;
  void reset();

 private:
  nn::ParamBlob sum_;
  float total_weight_ = 0.0f;
};

class PartialAccumulator {
 public:
  /// Shapes the accumulators from the global model (one accumulator tensor
  /// per parameter/buffer tensor per atom).
  explicit PartialAccumulator(models::BuiltModel& global);

  void reset();

  /// Adds a full-width trained copy of atom `atom` (same architecture),
  /// given as its wire blob (save_atom format: parameters then buffers).
  /// Lets parallel client workers upload blobs that the server accumulates
  /// in deterministic client order.
  void add_dense_atom_blob(std::size_t atom, std::span<const float> blob,
                           float weight);

  /// Adds a channel-sliced trained sub-model, given as its save_all blob;
  /// `global` (the model this accumulator was shaped from) supplies the
  /// tensor layout the plan indexes.
  void add_sliced(const models::SlicePlan& plan, models::BuiltModel& global,
                  const nn::ParamBlob& sliced, float weight);

  /// Writes averaged values back into the global model; untouched elements
  /// keep their previous value (Eq. 16's S_n membership).
  void finalize_into(models::BuiltModel& global);

 private:
  std::vector<std::vector<Tensor>> acc_;    ///< [atom][tensor]
  std::vector<std::vector<Tensor>> count_;  ///< matching accumulated weights
};

}  // namespace fp::fed
