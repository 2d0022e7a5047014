// Knowledge-distillation FAT baselines.
//
// FedDF-AT (Lin et al. 2020): clients train the largest model from a family
// that fits their memory; the server FedAvg-aggregates per architecture and
// then fuses knowledge across architectures by ensemble distillation on a
// small public dataset (soft cross-entropy against the mean teacher).
//
// FedET-AT (Cho et al. 2022): ensemble knowledge transfer into the single
// large model, with per-sample confidence weighting of the teachers
// (simplified from the paper's diversity/variance weighting; DESIGN.md §5).
#pragma once

#include "baselines/local_at.hpp"
#include "fed/algorithm.hpp"

namespace fp::baselines {

struct DistillationConfig {
  fed::FlConfig fl;
  std::vector<sys::ModelSpec> family;  ///< ascending memory requirement
  bool ensemble_transfer = false;      ///< false = FedDF, true = FedET
  int distill_iters = 16;              ///< paper: 128 (§B.4)
  std::int64_t distill_batch = 32;
  float distill_lr = 0.005f;
  double device_mem_scale = 1.0;
  bool adversarial = true;
};

class DistillationFAT final : public fed::FederatedAlgorithm {
 public:
  DistillationFAT(fed::FedEnv& env, DistillationConfig cfg);

  std::string name() const override {
    return cfg2_.ensemble_transfer ? "FedET-AT" : "FedDF-AT";
  }
  /// The deployed model is the largest prototype.
  models::BuiltModel& global_model() override { return *prototypes_.back(); }

  /// Largest family index whose full-training memory fits the budget.
  std::size_t arch_for_mem(std::int64_t avail_mem_bytes) const;

 private:
  // RoundEngine hooks: each client trains the largest family architecture
  // that fits its memory; uploads FedAvg per architecture, then ensemble
  // distillation fuses knowledge across prototypes.
  void begin_dispatch(const std::vector<fed::TaskSpec>& tasks) override;
  fed::Upload train_client(const fed::TaskSpec& task) override;
  void apply_update(const fed::TaskSpec& task, fed::Upload&& up,
                    fed::ApplyMode mode, float mix) override;
  void finalize_round(std::int64_t t) override;

  void distill(std::int64_t t);

  /// Wire payload: which prototype the blob belongs to.
  struct Payload {
    std::size_t arch = 0;
    nn::ParamBlob blob;
  };

  Rng init_rng_;
  DistillationConfig cfg2_;
  std::vector<std::unique_ptr<models::BuiltModel>> prototypes_;
  std::vector<std::int64_t> family_mem_;
  Rng public_rng_;
  std::optional<data::BatchIterator> public_batches_;

  // Dispatch/aggregation state owned by the engine pipeline.
  std::vector<nn::ParamBlob> broadcast_;  ///< one snapshot per prototype
  std::vector<std::int64_t> broadcast_bytes_;  ///< wire size per prototype
  std::vector<std::size_t> archs_;        ///< per-slot architecture choice
  LocalAtConfig at_;
  nn::SgdConfig round_sgd_;
  std::vector<fed::BlobAverager> per_arch_;
};

}  // namespace fp::baselines
