// jFAT (Zizzo et al. 2020): joint federated adversarial training.
// Every client adversarially trains the whole model end-to-end and FedAvg
// aggregates. On memory-constrained devices this is the method that pays the
// memory-swapping latency (paper Figs. 2/7).
#pragma once

#include "baselines/local_at.hpp"
#include "fed/algorithm.hpp"

namespace fp::baselines {

struct JFatConfig {
  fed::FlConfig fl;
  sys::ModelSpec model_spec;
  bool adversarial = true;  ///< false gives plain FedAvg (diagnostics)
};

class JFat final : public fed::FederatedAlgorithm, public fed::NetMethod {
 public:
  JFat(fed::FedEnv& env, JFatConfig cfg);

  std::string name() const override { return adversarial_ ? "jFAT" : "FedAvg"; }
  models::BuiltModel& global_model() override { return model_; }

 private:
  // RoundEngine hooks: broadcast the full model, adversarially train it end
  // to end on each client, FedAvg the uploaded blobs.
  void begin_dispatch(const std::vector<fed::TaskSpec>& tasks) override;
  fed::Upload train_client(const fed::TaskSpec& task) override;
  void apply_update(const fed::TaskSpec& task, fed::Upload&& up,
                    fed::ApplyMode mode, float mix) override;
  void finalize_round(std::int64_t t) override;

  // Distributed runtime (DESIGN.md §10): state = the broadcast, its wire
  // bytes and the round lr; the upload payload is the trained blob.
  void net_state(comm::StateIO& io) override;
  void net_upload(fed::Upload& up, comm::StateIO& io) override;

  Rng init_rng_;  ///< seeds weight init (deterministic per cfg.fl.seed)
  models::BuiltModel model_;
  bool adversarial_;

  // Dispatch/aggregation state owned by the engine pipeline.
  nn::ParamBlob broadcast_;            ///< as decoded by clients (wire codec)
  std::int64_t broadcast_bytes_ = 0;   ///< wire size of one broadcast download
  LocalAtConfig at_;                   ///< fixed by the config
  nn::SgdConfig round_sgd_;            ///< cfg.sgd at the dispatch round's lr
  fed::BlobAverager averager_;
};

}  // namespace fp::baselines
