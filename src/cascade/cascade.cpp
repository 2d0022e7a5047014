#include "cascade/cascade.hpp"

#include <stdexcept>

namespace fp::cascade {

std::unique_ptr<nn::Sequential> make_aux_head(const sys::ModelSpec& spec,
                                              std::size_t end, Rng& rng) {
  // Global-average-pool + one fully connected layer (theta_m = {W_m, b_m},
  // paper §5.1): pooling keeps the head tiny at any spatial size while the
  // linear-plus-cross-entropy structure keeps the early-exit loss convex in
  // z_m (GAP is linear), so the mu/2 ||z_m||^2 regularizer of Eq. 9 still
  // yields strong convexity.
  const sys::TensorShape z = spec.shape_before(end);
  auto head = std::make_unique<nn::Sequential>();
  if (z.h * z.w > 1) head->push_back(std::make_unique<nn::GlobalAvgPool>());
  head->push_back(std::make_unique<nn::Flatten>());
  head->push_back(std::make_unique<nn::Linear>(z.c, spec.num_classes, rng));
  return head;
}

CascadeState::CascadeState(models::BuiltModel& model, Partition partition, Rng& rng)
    : model_(&model), partition_(std::move(partition)) {
  aux_heads_.resize(partition_.num_modules());
  for (std::size_t m = 0; m + 1 < partition_.num_modules(); ++m)
    aux_heads_[m] = make_aux_head(model.spec(), partition_.modules[m].end, rng);
}

Tensor CascadeState::prefix_logits(std::size_t m, const Tensor& x, bool train) {
  const auto& mod = partition_.modules.at(m);
  Tensor z = model_->forward_range(0, mod.end, x, train);
  if (aux_heads_[m]) return aux_heads_[m]->forward(z, train);
  return z;  // last module: the backbone output is already logits
}

Tensor CascadeState::prefix_backward(std::size_t m, std::size_t begin_from,
                                     const Tensor& grad_logits) {
  const auto& mod = partition_.modules.at(m);
  Tensor g = grad_logits;
  if (aux_heads_[m]) g = aux_heads_[m]->backward(g);
  return model_->backward_range(begin_from, mod.end, g);
}

nn::ParamBlob CascadeState::save_aux(std::size_t m) {
  if (!aux_heads_.at(m)) return {};
  return nn::save_blob(*aux_heads_[m]);
}

void CascadeState::load_aux(std::size_t m, const nn::ParamBlob& blob) {
  if (!aux_heads_.at(m)) {
    if (!blob.empty()) throw std::invalid_argument("load_aux: last module has none");
    return;
  }
  nn::load_blob(*aux_heads_[m], blob);
}

}  // namespace fp::cascade
