// Robustness evaluation harness: clean accuracy, PGD-k accuracy, and
// AutoAttackLite accuracy (APGD-CE + APGD-DLR with restarts; a sample counts
// as robust only if it survives every attack) — the paper's three metrics
// (Clean Acc. / PGD Acc. / AA Acc., §7.1).
//
// Each evaluate_* call shards every batch's rows over the pool
// (attack/sharded.hpp, DESIGN.md §2.5): the model itself plus one eval-mode
// replica per extra thread, built for the call and freed on return, run the
// classification forwards and every attack step's forward and backward.
// The loss, the Rng and AA's survival mask stay on the calling thread, so
// the accuracies are bit-identical for any FP_NUM_THREADS.
#pragma once

#include "attack/attacks.hpp"
#include "data/dataset.hpp"
#include "models/built_model.hpp"
#include "tensor/compute_mode.hpp"

namespace fp::attack {

/// Eval-mode cross-entropy loss/grad of a full model (input = images), on
/// the one model: the unsharded reference the sharded path is tested against.
LossGradFn model_ce_lossgrad(models::BuiltModel& model);
/// Eval-mode DLR loss/grad (needs >= 3 classes).
LossGradFn model_dlr_lossgrad(models::BuiltModel& model);

struct RobustEvalConfig {
  float epsilon = 8.0f / 255.0f;
  int pgd_steps = 20;       ///< PGD-20, paper §7.1
  int aa_steps = 20;        ///< APGD iterations per attack
  int aa_restarts = 2;      ///< random restarts per APGD attack
  std::int64_t batch_size = 100;
  /// Cap on evaluated samples (<=0 = whole set); attacks are expensive on CPU.
  std::int64_t max_samples = -1;
  std::uint64_t seed = 99;
  /// Kernels for the pure-inference forwards (the classification of clean
  /// and adversarial batches). Attack generation itself stays fp32: its
  /// forwards feed a backward, and perturbation search must not change with
  /// the precision knob (DESIGN.md §8).
  compute::ComputeConfig compute;
};

struct RobustEvalResult {
  double clean_acc = 0.0;
  double pgd_acc = 0.0;
  double aa_acc = 0.0;
};

/// Clean accuracy only (cheap). `compute` selects the inference kernels
/// (default: fp32 blocked, the historical behaviour).
double evaluate_clean(models::BuiltModel& model, const data::Dataset& test,
                      std::int64_t batch_size = 100, std::int64_t max_samples = -1,
                      const compute::ComputeConfig& compute = {});

/// PGD-k adversarial accuracy.
double evaluate_pgd(models::BuiltModel& model, const data::Dataset& test,
                    const RobustEvalConfig& cfg);

/// Full three-metric evaluation.
RobustEvalResult evaluate_robustness(models::BuiltModel& model,
                                     const data::Dataset& test,
                                     const RobustEvalConfig& cfg);

}  // namespace fp::attack
