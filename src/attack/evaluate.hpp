// Robustness evaluation harness: clean accuracy, PGD-k accuracy, and
// AutoAttackLite accuracy (APGD-CE + APGD-DLR with restarts; a sample counts
// as robust only if it survives every attack) — the paper's three metrics
// (Clean Acc. / PGD Acc. / AA Acc., §7.1).
//
// Every accuracy the program reports comes from these loops: the final
// evaluation, history snapshots (fed::FederatedAlgorithm, which also splits
// FedRBN's BN banks) and FedProphet's prefix validation. Each shards every
// batch's rows over the pool (attack/sharded.hpp, DESIGN.md §2.5): the
// network itself plus one eval-mode replica per extra thread run the
// classification forwards and every attack step's forward and backward.
// The loss, the Rng and AA's survival mask stay on the calling thread, so
// the accuracies are bit-identical for any FP_NUM_THREADS.
#pragma once

#include "attack/attacks.hpp"
#include "attack/sharded.hpp"
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

/// Row shards of one evaluation of `test`: eval_shards of its largest batch.
std::size_t eval_shards(const data::Dataset& test, const RobustEvalConfig& cfg);

/// The loops, over the first cfg.max_samples samples of `test`, on a
/// replica set the caller built with eval_shards(test, cfg) shards (a
/// model's shard_model or cascade::shard_prefix), under the eval phase
/// timer. Clean predictions draw no Rng, so pass order does not matter.
double evaluate_clean(const ShardedNet& net, const data::Dataset& test,
                      const RobustEvalConfig& cfg);
/// PGD-k adversarial accuracy (cfg.pgd_steps, cfg.epsilon, Rng(cfg.seed)).
double evaluate_pgd(const ShardedNet& net, const data::Dataset& test,
                    const RobustEvalConfig& cfg);
/// The three metrics. AA's survival starts from the clean pass's masks.
RobustEvalResult evaluate_robustness(const ShardedNet& net,
                                     const data::Dataset& test,
                                     const RobustEvalConfig& cfg);

/// The same loops on a replica set of `model` built for the call.
double evaluate_clean(models::BuiltModel& model, const data::Dataset& test,
                      std::int64_t batch_size = 100, std::int64_t max_samples = -1,
                      const compute::ComputeConfig& compute = {});
double evaluate_pgd(models::BuiltModel& model, const data::Dataset& test,
                    const RobustEvalConfig& cfg);
RobustEvalResult evaluate_robustness(models::BuiltModel& model,
                                     const data::Dataset& test,
                                     const RobustEvalConfig& cfg);

}  // namespace fp::attack
