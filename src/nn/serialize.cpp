#include "nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fp::nn {

std::vector<Tensor*> state_tensors(Layer& layer) {
  auto out = layer.parameters();
  for (auto* b : layer.buffers()) out.push_back(b);
  return out;
}

ParamBlob save_blob(Layer& layer) {
  ParamBlob blob;
  for (auto* t : state_tensors(layer))
    blob.insert(blob.end(), t->data(), t->data() + t->numel());
  return blob;
}

void load_blob(Layer& layer, std::span<const float> blob) {
  // Shape-check the WHOLE blob before touching any tensor: a mismatched
  // checkpoint must not leave the layer half-overwritten.
  const auto tensors = state_tensors(layer);
  std::size_t need = 0;
  for (auto* t : tensors) need += static_cast<std::size_t>(t->numel());
  if (need != blob.size())
    throw std::invalid_argument(
        "load_blob: blob holds " + std::to_string(blob.size()) +
        " floats but the layer's " + std::to_string(tensors.size()) +
        " tensors (params + buffers) need exactly " + std::to_string(need));
  std::size_t offset = 0;
  for (auto* t : tensors) {
    const auto n = static_cast<std::size_t>(t->numel());
    std::copy_n(blob.data() + offset, n, t->data());
    offset += n;
  }
}

std::int64_t param_count(Layer& layer) {
  std::int64_t n = 0;
  for (auto* p : layer.parameters()) n += p->numel();
  return n;
}

void blob_axpy(ParamBlob& acc, const ParamBlob& blob, float weight) {
  if (acc.empty()) acc.assign(blob.size(), 0.0f);
  if (acc.size() != blob.size())
    throw std::invalid_argument("blob_axpy: size mismatch");
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += weight * blob[i];
}

void blob_scale(ParamBlob& acc, float s) {
  for (auto& v : acc) v *= s;
}

double blob_l2_distance(const ParamBlob& a, const ParamBlob& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("blob_l2_distance: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace fp::nn
