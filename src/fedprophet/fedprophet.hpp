// FedProphet (paper Algorithm 2): memory-efficient federated adversarial
// training via robust and consistent cascade learning.
//
// Modules are trained in forward order. Within a module's stage, each
// communication round: the coordinator adjusts eps_{m-1} (Adaptive
// Perturbation Adjustment) and assigns each sampled client the largest
// trainable block of future modules (Differentiated Module Assignment);
// clients run adversarial cascade learning with strong-convexity
// regularization (Eq. 9/13); the server partial-averages modules (Eq. 16)
// and auxiliary heads (Eq. 17). When a module converges it is frozen and
// E[max ||Delta z_m||] is collected for the next stage's budget.
#pragma once

#include <memory>
#include <optional>

#include "cascade/trainer.hpp"
#include "fed/algorithm.hpp"
#include "fedprophet/coordinator.hpp"

namespace fp::fedprophet {

struct FedProphetConfig {
  fed::FlConfig fl;
  sys::ModelSpec model_spec;          ///< trainable backbone
  std::int64_t rmin_bytes = 0;        ///< partition constraint (Algorithm 1)
  std::int64_t rounds_per_module = 30;  ///< paper: <= 500 with early stop
  std::int64_t eval_every = 5;        ///< APA / early-stop cadence (rounds)
  std::int64_t patience_evals = 0;    ///< 0 = no early stop
  float mu = 1e-5f;                   ///< strong convexity (paper's optimum)
  float alpha_init = 0.3f;
  float delta_alpha = 0.1f;
  float gamma = 0.05f;
  bool apa = true;                    ///< Table 3 ablation toggles
  bool dma = true;
  /// Device memory is multiplied by this before the DMA check, mapping the
  /// paper-scale device fleet onto the scaled-down trainable model
  /// (DESIGN.md §1). <= 0 selects full-model / paper scale (1.0).
  double device_mem_scale = 1.0;
  std::int64_t val_samples = 256;     ///< validation subset for C_m / A_m
};

class FedProphet final : public fed::FederatedAlgorithm,
                         public fed::NetMethod {
 public:
  FedProphet(fed::FedEnv& env, FedProphetConfig cfg);

  std::string name() const override { return "FedProphet"; }
  models::BuiltModel& global_model() override { return model_; }
  cascade::CascadeState& cascade() { return cascade_; }
  const cascade::Partition& partition() const { return cascade_.partition(); }

  /// Full Algorithm 2 (all modules). Rounds are stage-internal and execute
  /// through the shared fed::RoundEngine (run_round from the base class).
  void train();

  /// Per-stage records: module index, rounds used, final prefix accuracy,
  /// eps actually used, measured ||Delta z|| statistics.
  struct StageRecord {
    std::size_t module = 0;
    std::int64_t rounds = 0;
    double final_clean = 0.0, final_adv = 0.0;
    double eps_used = 0.0;
    double mean_dz = 0.0;       ///< E[max ||Delta z_m||] after fixing
    double mean_dz_per_dim = 0.0;
  };
  const std::vector<StageRecord>& stages() const { return stages_; }

  /// Round-indexed eps-per-dimension trace (paper Fig. 10).
  const std::vector<double>& eps_trace() const { return eps_trace_; }

  const FedProphetConfig& config() const { return cfg2_; }

 private:
  /// Wire payload: the trained atom range, the last assigned module, the
  /// atom blobs (Eq. 16), and that module's auxiliary head (Eq. 17).
  struct Payload {
    std::size_t atom_begin = 0, atom_end = 0, module_end = 0;
    std::vector<nn::ParamBlob> atoms;
    nn::ParamBlob aux;
  };

  /// RemoteDispatcher custom op: the fix_current_module ||Delta z|| probe.
  static constexpr std::uint32_t kNetOpProbeDz = 1;

  // RoundEngine hooks: Differentiated Module Assignment decides what each
  // client trains; uploads partial-average per atom plus aux heads.
  void begin_dispatch(const std::vector<fed::TaskSpec>& tasks) override;
  fed::Upload train_client(const fed::TaskSpec& task) override;
  void apply_update(const fed::TaskSpec& task, fed::Upload&& up,
                    fed::ApplyMode mode, float mix) override;
  void finalize_round(std::int64_t t) override;

  // Distributed runtime (DESIGN.md §10): state = stage + eps + perf_min +
  // lr + the broadcast (model and live aux heads); the upload payload is
  // the trained atoms and aux head; the dz probe fans out as a custom op so
  // worker-owned client streams advance exactly once.
  void net_state(comm::StateIO& io) override;
  void net_upload(fed::Upload& up, comm::StateIO& io) override;
  void net_custom_op(std::uint32_t op, comm::FrameReader& ctx,
                     std::size_t client, comm::FrameWriter& out) override;
  /// FedProphet prices its ClientWork on the trainable backbone (atom ranges
  /// index the cascade partition), not the paper-shape cost spec.
  const sys::ModelSpec& time_spec(const fed::FedEnv&) const override {
    return model_.spec();
  }

  data::BatchIterator& client_batches(std::size_t k);
  float current_epsilon() const;
  std::int64_t input_dim_of_stage() const;
  void fix_current_module();
  /// The ||Delta z|| probe of one client on a private replica of the
  /// post-stage model and module `stage`'s aux head (both ends of the
  /// distributed custom op and the local fan-out).
  cascade::CascadeLocalTrainer::DzStats probe_dz(
      const nn::ParamBlob& model_blob, const nn::ParamBlob& aux_blob,
      std::size_t stage, float eps, std::size_t client);
  /// Rebuilds broadcast_atoms_ as per-atom slices of broadcast_.
  void rebuild_atom_slices();

  Rng init_rng_;  ///< seeds weight/aux-head init (per cfg.fl.seed)
  FedProphetConfig cfg2_;
  models::BuiltModel model_;
  cascade::CascadeState cascade_;
  AdaptivePerturbation apa_;
  std::vector<StageRecord> stages_;
  std::vector<double> eps_trace_;

  // Dispatch/aggregation state owned by the engine pipeline.
  nn::ParamBlob broadcast_;                   ///< as decoded by clients
  std::vector<nn::ParamBlob> broadcast_aux_;  ///< per-module aux-head blobs
  std::vector<nn::ParamBlob> broadcast_atoms_;  ///< per-atom slices of broadcast_
  std::vector<std::size_t> atom_blob_elems_;  ///< save_atom sizes (slicing)
  std::int64_t broadcast_bytes_ = 0;  ///< wire size of one client's download
  float round_lr_ = 0.0f;
  float round_eps_ = 0.0f;  ///< current_epsilon() at begin_dispatch
  double perf_min_ = 1.0;  ///< Eq. 15's min available performance
  std::vector<double> perf_window_;  ///< last clients_per_round device speeds
  fed::PartialAccumulator acc_;
  std::vector<fed::BlobAverager> aux_acc_;

  std::size_t stage_ = 0;           ///< current module index m
  std::int64_t global_round_ = 0;   ///< t across all stages
  double prev_final_ratio_ = 0.0;   ///< C*_{m-1} / A*_{m-1}
  double mean_dz_prev_ = 0.0;       ///< base magnitude for eps_{m-1}
  double last_clean_ = 0.0, last_adv_ = 0.0;
};

}  // namespace fp::fedprophet
