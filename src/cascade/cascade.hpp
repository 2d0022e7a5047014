// Runtime cascade state: a built model, its partition, and one auxiliary
// output model theta_m per non-final module (paper Fig. 1 / Eq. 4).
//
// The auxiliary model is a single fully connected layer on the flattened
// module output — the paper's design (1) in §5.1, chosen so the early-exit
// loss with the l2 regularizer is strongly convex in z_m (Lemma 1).
#pragma once

#include "cascade/partitioner.hpp"
#include "models/built_model.hpp"

namespace fp::cascade {

class CascadeState {
 public:
  CascadeState(models::BuiltModel& model, Partition partition, Rng& rng);

  models::BuiltModel& model() { return *model_; }
  const Partition& partition() const { return partition_; }
  std::size_t num_modules() const { return partition_.num_modules(); }

  /// Auxiliary head of module m (nullptr for the last module, whose output
  /// model is the backbone's own classifier).
  nn::Sequential* aux_head(std::size_t m) { return aux_heads_[m].get(); }

  /// Logits of the cascaded prefix (w_1 ... w_m) through module m's output
  /// model: atoms [0, end_m) then aux head (or nothing if last).
  Tensor prefix_logits(std::size_t m, const Tensor& x, bool train);

  /// Gradient entry point matching prefix_logits: backward through the aux
  /// head (if any) and atoms [begin_from, end_m), returning grad wrt the
  /// input of atom `begin_from`.
  Tensor prefix_backward(std::size_t m, std::size_t begin_from,
                         const Tensor& grad_logits);

  /// Wire blob of module m's aux head (empty for the last module).
  nn::ParamBlob save_aux(std::size_t m);
  void load_aux(std::size_t m, const nn::ParamBlob& blob);

 private:
  models::BuiltModel* model_;
  Partition partition_;
  std::vector<std::unique_ptr<nn::Sequential>> aux_heads_;
};

/// Builds the auxiliary head (Flatten + Linear) for the boundary after atom
/// `end` of `spec`.
std::unique_ptr<nn::Sequential> make_aux_head(const sys::ModelSpec& spec,
                                              std::size_t end, Rng& rng);

}  // namespace fp::cascade
