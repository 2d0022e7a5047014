// Base class for federated training algorithms (jFAT, the memory-efficient
// baselines, and FedProphet). An algorithm IS a RoundMethod: it implements
// the dispatch / train / apply / finalize hooks of fed/runtime/engine.hpp, and
// the shared RoundEngine executes the sample -> dispatch -> train -> upload
// -> aggregate -> simulated-time pipeline under the configured scheduler
// (synchronous barrier rounds or async event-driven aggregation). This class
// also provides the learning-rate schedule, history bookkeeping, and the
// evaluation of the global model: the periodic snapshots run() records and
// the final three-metric evaluation, both on attack/evaluate's loops.
#pragma once

#include <memory>
#include <string>

#include "attack/evaluate.hpp"
#include "fed/aggregator.hpp"
#include "fed/client_pool.hpp"
#include "fed/env.hpp"
#include "fed/runtime/engine.hpp"

namespace fp::fed {

class FederatedAlgorithm : public RoundMethod {
 public:
  /// Client k's runtime streams are seeded from cfg.seed +
  /// client_stream_base + k (ClientPool).
  FederatedAlgorithm(FedEnv& env, FlConfig cfg,
                     std::uint64_t client_stream_base = 5000);
  ~FederatedAlgorithm() override;

  virtual std::string name() const = 0;

  /// The model the server would deploy (used by the evaluation harness).
  virtual models::BuiltModel& global_model() = 0;

  /// One engine round at server index t: a barrier round under the sync
  /// scheduler, one aggregation event under the async scheduler.
  void run_round(std::int64_t t);

  /// Full training: cfg.rounds rounds, evaluating every `eval_every` rounds
  /// (0 = only at the end).
  void run(std::int64_t eval_every = 0);

  const History& history() const { return history_; }
  const TimeBreakdown& sim_time() const { return sim_time_; }
  RoundEngine& engine() { return *engine_; }
  /// Per-client runtime state. Methods bracket each dispatch with
  /// begin_round (begin_dispatch) and end_round (finalize_round); a
  /// distributed worker brackets each group over the tasks it owns.
  ClientPool& clients() { return clients_; }
  /// Dispatch/apply/drop counters accumulated over every round so far
  /// (time stays zero here — the running clock is sim_time()).
  const RoundStats& total_stats() const { return total_stats_; }

  /// The paper's three metrics (Clean / PGD / AA) of the global model on
  /// the test set.
  attack::RobustEvalResult evaluate(const attack::RobustEvalConfig& cfg);

  /// Clean + PGD accuracy snapshot of the global model on the test set.
  RoundRecord evaluate_snapshot(std::int64_t round,
                                std::int64_t max_samples = 256,
                                int pgd_steps = 10);

  /// The BatchNorm bank the global model classifies clean (or attacked)
  /// inputs with. Only dual-BN FedRBN answers 1 for attacked inputs.
  virtual int eval_bank(bool /*adversarial*/) const { return 0; }

  /// Whether global_model() alone is the deployable artifact: not when a
  /// bank choice is part of the model.
  bool single_global_model() const {
    return eval_bank(false) == eval_bank(true);
  }

 protected:
  /// Single source of the schedule: the engine's lr_at also fills TaskSpec.lr.
  float lr_at(std::int64_t t) const { return engine_->lr_at(t); }

  void add_sim_time(const TimeBreakdown& t) { sim_time_ += t; }

  FedEnv* env_;
  FlConfig cfg_;
  ClientPool clients_;
  History history_;
  TimeBreakdown sim_time_;
  RoundStats total_stats_;

 private:
  /// Clean accuracy on eval_bank(false), PGD (and AA `with_aa`) on
  /// eval_bank(true): one replica set per bank.
  attack::RobustEvalResult evaluate_banks(const attack::RobustEvalConfig& cfg,
                                          bool with_aa);

  std::unique_ptr<RoundEngine> engine_;
};

}  // namespace fp::fed
