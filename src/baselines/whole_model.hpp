// Whole-model federated adversarial training over a family of architectures.
//
// Five comparison methods share one path: snapshot every architecture, train
// a replica of the one a client's memory affords end to end, uplink it,
// FedAvg per architecture, and optionally fuse the family by distillation.
//
// jFAT (Zizzo et al. 2020): a family of one; every client adversarially
// trains the whole model and FedAvg aggregates. On memory-constrained
// devices this is the method that pays the memory-swapping latency (paper
// Figs. 2/7). With adversarial=false it is plain FedAvg.
//
// FedRBN (Hong et al. 2023): a family of one. Clients the full model fits
// run dual-BN adversarial training (clean statistics in bank 0, adversarial
// statistics in bank 1); the rest run standard training, updating only the
// clean bank. FedAvg over full blobs propagates the adversarial statistics
// to everyone. Clean inference uses bank 0, robust inference bank 1. Under
// high systematic heterogeneity few clients can afford AT, so clean accuracy
// stays high but robustness collapses (paper Table 2).
//
// FedDF-AT (Lin et al. 2020): each client trains the largest family member
// that fits its memory; after the per-architecture FedAvg the server fuses
// knowledge across architectures by ensemble distillation on a small public
// set (soft cross-entropy against the mean teacher).
//
// FedET-AT (Cho et al. 2022): ensemble knowledge transfer into the largest
// member only, with per-sample confidence weighting of the teachers
// (simplified from the paper's diversity/variance weighting).
#pragma once

#include <optional>

#include "baselines/local_at.hpp"
#include "fed/algorithm.hpp"

namespace fp::baselines {

/// What distinguishes the five methods: the client rule and the server
/// fusion step.
enum class WholeModelRule {
  kJfat,    ///< end-to-end AT everywhere, FedAvg (jFAT / FedAvg)
  kFedRbn,  ///< dual-BN AT where the model fits, else standard training
  kFedDf,   ///< per-architecture FedAvg, then distillation into every member
  kFedEt,   ///< per-architecture FedAvg, then transfer into the largest member
};

struct WholeModelConfig {
  fed::FlConfig fl;
  /// Ascending memory requirement; one entry except for FedDF/FedET.
  std::vector<sys::ModelSpec> family;
  WholeModelRule rule = WholeModelRule::kJfat;
  bool adversarial = true;  ///< false = standard training on every client
  /// Device-availability bytes -> trainable-model bytes for the fit checks.
  double device_mem_scale = 1.0;
  int distill_iters = 16;  ///< paper: 128 (§B.4)
  std::int64_t distill_batch = 32;
  float distill_lr = 0.005f;
};

class WholeModelFAT final : public fed::FederatedAlgorithm {
 public:
  WholeModelFAT(fed::FedEnv& env, WholeModelConfig cfg);

  std::string name() const override;
  /// The deployed model is the largest family member.
  models::BuiltModel& global_model() override { return *family_.back(); }

  /// Largest family index whose full-training memory fits the device (the
  /// smallest member is always allowed).
  std::size_t arch_for_mem(std::int64_t avail_mem_bytes) const;

  /// Fraction of client selections that ran adversarial training.
  double at_client_fraction() const {
    return selections_ ? static_cast<double>(at_selections_) /
                             static_cast<double>(selections_)
                       : 0.0;
  }

  /// FedRBN: the clean BN bank (0) for clean inputs, the adversarial bank
  /// (1) for attacked ones.
  int eval_bank(bool adversarial) const override {
    return wcfg_.rule == WholeModelRule::kFedRbn && adversarial ? 1 : 0;
  }

 private:
  /// What one client trains: a pure function of its TaskSpec.
  struct ClientPlan {
    std::size_t arch = 0;
    LocalAtConfig at;
  };
  ClientPlan plan(const fed::TaskSpec& task) const;
  bool fits(std::size_t arch, std::int64_t avail_mem_bytes) const;

  // RoundEngine hooks: snapshot every architecture, train the client's
  // architecture end to end, FedAvg per architecture, then distill.
  void begin_dispatch(const std::vector<fed::TaskSpec>& tasks) override;
  fed::Upload train_client(const fed::TaskSpec& task) override;
  void apply_update(const fed::TaskSpec& task, fed::Upload&& up,
                    fed::ApplyMode mode, float mix) override;
  void finalize_round(std::int64_t t) override;

  void distill(std::int64_t t);

  // Distributed runtime (DESIGN.md §10): state = the per-architecture
  // broadcasts, their wire bytes and the round lr; the upload payload is
  // the architecture index and the trained blob.
  void net_state(comm::StateIO& io) override;
  void net_upload(fed::Upload& up, comm::StateIO& io) override;

  /// Wire payload: which architecture the blob belongs to.
  struct Payload {
    std::size_t arch = 0;
    nn::ParamBlob blob;
  };

  WholeModelConfig wcfg_;
  Rng init_rng_;  ///< seeds weight init (deterministic per method and seed)
  std::vector<std::unique_ptr<models::BuiltModel>> family_;
  std::vector<std::int64_t> family_mem_;  ///< full-training bytes per member
  Rng public_rng_;
  std::optional<data::BatchIterator> public_batches_;
  std::int64_t selections_ = 0, at_selections_ = 0;

  // Dispatch/aggregation state owned by the engine pipeline.
  std::vector<nn::ParamBlob> broadcast_;  ///< per architecture, as decoded
  std::vector<std::int64_t> broadcast_bytes_;  ///< wire size per architecture
  nn::SgdConfig round_sgd_;  ///< cfg.sgd at the dispatch round's lr
  std::vector<fed::BlobAverager> averagers_;  ///< one per architecture
};

}  // namespace fp::baselines
