// Client-side adversarial cascade learning (paper §5.1, Eq. 9; §6.3, Eq. 13).
//
// Trains a contiguous block of modules [module_begin, module_end) against the
// early-exit loss of the LAST module in the block (Differentiated Module
// Assignment trains several "future" modules jointly), with:
//   * adversarial perturbation on the block input (l_inf in image space for
//     the first module, l2 in feature space further in),
//   * strong-convexity regularization mu/2 ||z_m||^2 on the block output
//     whenever the output model is an auxiliary head (Eq. 9),
//   * frozen preceding modules forwarded in eval mode.
#pragma once

#include "attack/attacks.hpp"
#include "attack/sharded.hpp"
#include "cascade/cascade.hpp"
#include "data/dataset.hpp"
#include "nn/optimizer.hpp"
#include "tensor/compute_mode.hpp"

namespace fp::cascade {

struct LocalTrainConfig {
  std::size_t module_begin = 0;
  std::size_t module_end = 1;     ///< one past the last trained module
  float mu = 1e-5f;               ///< strong-convexity hyperparameter
  float eps_in = 8.0f / 255.0f;   ///< perturbation budget on the block input
  int pgd_steps = 10;             ///< PGD-10 training (paper §7.1)
  bool adversarial = true;
  nn::SgdConfig sgd;
  /// Kernels for the frozen-prefix forward (the fixed w*_m modules in front
  /// of the trained block). The trained block itself always runs fp32 — its
  /// forwards carry gradients (DESIGN.md §8).
  compute::ComputeConfig compute;
};

class CascadeLocalTrainer {
 public:
  CascadeLocalTrainer(CascadeState& cascade, const LocalTrainConfig& cfg);

  /// One local SGD iteration on one batch; returns the training loss.
  float train_batch(const data::Batch& batch, Rng& rng);

  /// Early-exit loss and input-gradient at the block input (shared by the
  /// PGD attack and by tests).
  float loss_grad(const Tensor& z_in, const std::vector<std::int64_t>& y,
                  Tensor* grad_in, bool train_mode, bool track_stats);

  void set_lr(float lr) { optimizer_.set_lr(lr); }

  /// Statistics of ||Delta z|| on the block output under the training attack
  /// (feeds Adaptive Perturbation Adjustment, Eq. 11, and Fig. 8's d*).
  struct DzStats {
    double mean_l2 = 0.0;
    double max_l2 = 0.0;
    double mean_per_dim = 0.0;  ///< mean_l2 / sqrt(dim), Fig. 10's y-axis
    std::int64_t dim = 0;
  };
  DzStats measure_output_perturbation(const data::Batch& batch, Rng& rng);

  std::size_t atom_begin() const { return atom_begin_; }
  std::size_t atom_end() const { return atom_end_; }

 private:
  Tensor block_input(const Tensor& x);
  attack::PgdConfig attack_config() const;

  CascadeState* cascade_;
  LocalTrainConfig cfg_;
  std::size_t atom_begin_, atom_end_;
  nn::Sequential* aux_;  ///< output model of the block (null = backbone head)
  nn::Sgd optimizer_;
};

/// The eval-mode prefix ending at module m over `shards` row shards:
/// `cascade` itself as shard 0, and shards - 1 replicas of its model, each
/// with module m's aux head (attack/sharded.hpp). FedProphet's validation
/// (the C_m / A_m its coordinator reads) runs attack/evaluate's clean and
/// PGD loops on it.
attack::ShardedNet shard_prefix(CascadeState& cascade, std::size_t m,
                                std::size_t shards);

}  // namespace fp::cascade
