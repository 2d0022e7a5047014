// FedRBN (Hong et al. 2023): Federated Robustness Propagation.
//
// Clients with enough memory run dual-BN adversarial training (clean
// statistics in bank 0, adversarial statistics in bank 1); memory-poor
// clients run standard training, updating only the clean bank. FedAvg
// aggregates parameters and both statistic banks, which propagates the
// adversarial BN statistics from AT clients to everyone. Clean inference
// uses bank 0; robust inference uses bank 1. Under high systematic
// heterogeneity few clients can afford AT, so clean accuracy stays high but
// robustness collapses — the signature the paper reports in Table 2.
#pragma once

#include "baselines/local_at.hpp"
#include "fed/algorithm.hpp"

namespace fp::baselines {

struct FedRbnConfig {
  fed::FlConfig fl;
  sys::ModelSpec model_spec;  ///< must contain BatchNorm layers
  double device_mem_scale = 1.0;
};

class FedRbn final : public fed::FederatedAlgorithm {
 public:
  FedRbn(fed::FedEnv& env, FedRbnConfig cfg);

  std::string name() const override { return "FedRBN"; }
  models::BuiltModel& global_model() override { return model_; }

  /// Selects the BN bank for evaluation (bank 1 = adversarial).
  void use_adv_bank(bool adv) { model_.use_bn_bank(adv ? 1 : 0); }

  /// Clean accuracy with the clean bank, adversarial with the adv bank.
  fed::RoundRecord evaluate_snapshot(std::int64_t round,
                                     std::int64_t max_samples = 256,
                                     int pgd_steps = 10) override;

  /// Fraction of client selections that could afford adversarial training.
  double at_client_fraction() const {
    return selections_ ? static_cast<double>(at_selections_) /
                             static_cast<double>(selections_)
                       : 0.0;
  }

 private:
  // RoundEngine hooks: dual-BN AT on memory-rich clients, standard training
  // on the rest; FedAvg over full blobs (both statistic banks travel).
  void begin_dispatch(const std::vector<fed::TaskSpec>& tasks) override;
  fed::Upload train_client(const fed::TaskSpec& task) override;
  void apply_update(const fed::TaskSpec& task, fed::Upload&& up,
                    fed::ApplyMode mode, float mix) override;
  void finalize_round(std::int64_t t) override;

  Rng init_rng_;
  FedRbnConfig cfg2_;
  models::BuiltModel model_;
  std::int64_t full_mem_bytes_;
  std::int64_t selections_ = 0, at_selections_ = 0;

  // Dispatch/aggregation state owned by the engine pipeline.
  nn::ParamBlob broadcast_;            ///< as decoded by clients (wire codec)
  std::int64_t broadcast_bytes_ = 0;   ///< wire size of one broadcast download
  nn::SgdConfig round_sgd_;
  std::vector<char> can_at_;  ///< per-slot adversarial eligibility
  fed::BlobAverager averager_;
};

}  // namespace fp::baselines
