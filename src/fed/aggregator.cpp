#include "fed/aggregator.hpp"

#include <stdexcept>

namespace fp::fed {

void BlobAverager::add(const nn::ParamBlob& blob, float weight) {
  if (sum_.empty()) sum_.assign(blob.size(), 0.0f);
  nn::blob_axpy(sum_, blob, weight);
  total_weight_ += weight;
}

nn::ParamBlob BlobAverager::average() const {
  if (total_weight_ == 0.0f) throw std::logic_error("BlobAverager: empty");
  nn::ParamBlob out = sum_;
  nn::blob_scale(out, 1.0f / total_weight_);
  return out;
}

void BlobAverager::reset() {
  sum_.clear();
  total_weight_ = 0.0f;
}

PartialAccumulator::PartialAccumulator(models::BuiltModel& global) {
  acc_.resize(global.num_atoms());
  count_.resize(global.num_atoms());
  for (std::size_t a = 0; a < global.num_atoms(); ++a) {
    for (auto* t : nn::state_tensors(global.atom(a))) {
      acc_[a].emplace_back(t->shape());
      count_[a].emplace_back(t->shape());
    }
  }
}

void PartialAccumulator::reset() {
  for (auto& atom : acc_)
    for (auto& t : atom) t.zero_();
  for (auto& atom : count_)
    for (auto& t : atom) t.zero_();
}

void PartialAccumulator::add_dense_atom_blob(std::size_t atom,
                                             std::span<const float> blob,
                                             float weight) {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < acc_[atom].size(); ++i) {
    Tensor& acc = acc_[atom][i];
    const auto numel = static_cast<std::size_t>(acc.numel());
    if (offset + numel > blob.size())
      throw std::logic_error("add_dense_atom_blob: blob too small");
    for (std::size_t j = 0; j < numel; ++j)
      acc[static_cast<std::int64_t>(j)] += weight * blob[offset + j];
    count_[atom][i].add_scalar_(weight);
    offset += numel;
  }
  if (offset != blob.size())
    throw std::logic_error("add_dense_atom_blob: blob size mismatch");
}

void PartialAccumulator::add_sliced(const models::SlicePlan& plan,
                                    models::BuiltModel& global,
                                    const nn::ParamBlob& sliced, float weight) {
  models::scatter_add_weights(plan, global, sliced, acc_, count_, weight);
}

void PartialAccumulator::finalize_into(models::BuiltModel& global) {
  for (std::size_t a = 0; a < global.num_atoms(); ++a) {
    const auto tensors = nn::state_tensors(global.atom(a));
    for (std::size_t i = 0; i < tensors.size(); ++i) {
      Tensor& target = *tensors[i];
      const Tensor& acc = acc_[a][i];
      const Tensor& cnt = count_[a][i];
      for (std::int64_t j = 0; j < target.numel(); ++j)
        if (cnt[j] > 0.0f) target[j] = acc[j] / cnt[j];
    }
  }
}

}  // namespace fp::fed
