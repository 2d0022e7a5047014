// Partial-training FAT baselines: HeteroFL-AT (static slice), FedDrop-AT
// (random slice), FedRolex-AT (rolling slice). Each client adversarially
// trains a channel-sliced sub-model whose width ratio matches its available
// memory; the server partial-averages sub-models into the global network.
#pragma once

#include <memory>

#include "baselines/local_at.hpp"
#include "fed/algorithm.hpp"
#include "models/slicing.hpp"

namespace fp::baselines {

struct PartialTrainingConfig {
  fed::FlConfig fl;
  sys::ModelSpec model_spec;
  models::SliceScheme scheme = models::SliceScheme::kStatic;
  /// Device memory multiplier mapping the paper-scale fleet onto the scaled
  /// trainable model (as in FedProphetConfig::device_mem_scale).
  double device_mem_scale = 1.0;
  double min_ratio = 0.25;  ///< floor on the width ratio
  bool adversarial = true;
};

class PartialTrainingFAT final : public fed::FederatedAlgorithm {
 public:
  PartialTrainingFAT(fed::FedEnv& env, PartialTrainingConfig cfg);

  std::string name() const override;
  models::BuiltModel& global_model() override { return model_; }

  /// Width ratio a device budget affords (memory scales ~ratio for the
  /// activation-dominated regime): ratio = min(1, R_k / R_full).
  double ratio_for_mem(std::int64_t avail_mem_bytes) const;

 private:
  // RoundEngine hooks: slice plans are drawn sequentially in slot order at
  // dispatch (they consume a shared per-round RNG); each client trains its
  // sliced sub-model; uploads scatter-accumulate into the global network.
  void begin_dispatch(const std::vector<fed::TaskSpec>& tasks) override;
  fed::Upload train_client(const fed::TaskSpec& task) override;
  void apply_update(const fed::TaskSpec& task, fed::Upload&& up,
                    fed::ApplyMode mode, float mix) override;
  void finalize_round(std::int64_t t) override;

  /// Wire payload: the trained sub-model plus the plan that extracted it
  /// (travels with the upload — dispatch state may be reused before an async
  /// update lands).
  struct Payload {
    models::SlicePlan plan;
    std::shared_ptr<models::BuiltModel> trained;
  };

  Rng init_rng_;
  PartialTrainingConfig cfg2_;
  models::BuiltModel model_;
  std::int64_t full_mem_bytes_;

  // Dispatch/aggregation state owned by the engine pipeline.
  std::vector<double> ratios_;             ///< per-slot width ratio
  std::vector<models::SlicePlan> plans_;   ///< per-slot slice plan
  Rng slice_rng_{0};                       ///< per-round shared plan stream
  std::int64_t slice_rng_round_ = -1;
  LocalAtConfig at_;
  nn::SgdConfig round_sgd_;
  fed::PartialAccumulator acc_;
};

}  // namespace fp::baselines
