// Flat parameter blobs: the wire format of the federated simulation.
//
// A blob is the concatenation of all trainable parameters followed by all
// buffers (BatchNorm running statistics) of a layer stack, in traversal
// order. Server aggregation, broadcast, and client upload all operate on
// blobs, mirroring the tensors-on-the-wire of a real FL deployment.
//
// This module owns the layout: state_tensors is the one walk every other
// module cuts or sums a blob by, and loads read any span in place.
#pragma once

#include <span>
#include <vector>

#include "nn/layer.hpp"

namespace fp::nn {

using ParamBlob = std::vector<float>;

/// The tensors of `layer`'s blob in blob order: parameters, then buffers.
std::vector<Tensor*> state_tensors(Layer& layer);

/// Serializes parameters + buffers of `layer` into a flat blob.
ParamBlob save_blob(Layer& layer);

/// Loads a blob produced by save_blob (or a view of one inside a larger
/// buffer) back into `layer`. Throws if the size does not match.
void load_blob(Layer& layer, std::span<const float> blob);

/// Total number of trainable parameters.
std::int64_t param_count(Layer& layer);

/// Weighted in-place accumulation: acc += weight * blob.
void blob_axpy(ParamBlob& acc, const ParamBlob& blob, float weight);

/// acc *= s.
void blob_scale(ParamBlob& acc, float s);

/// Euclidean distance between two blobs (model-drift diagnostics).
double blob_l2_distance(const ParamBlob& a, const ParamBlob& b);

}  // namespace fp::nn
