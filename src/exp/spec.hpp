// ExperimentSpec: the declarative description of one federated experiment
// (DESIGN.md §7).
//
// Every knob of a run — method, workload, model, every fed::FlConfig field
// including the nested async.*/comm.*/mem.* subsystem configs, the
// environment (fleet binding, public split), evaluation, and the per-method
// hyperparameters — is addressable by a dotted key ("fl.num_clients",
// "comm.codec", "fp.rmin_frac", ...). Specs are built from defaults that
// reproduce the historical bench scenarios exactly, then overridden by a
// JSON config file and/or key=value CLI arguments, resolved (auto fields
// replaced by their concrete derived values), and serialized back to JSON so
// any run can be reproduced from its dumped spec alone.
//
// Key lookup is strict: an unknown key throws SpecError with a nearest-key
// suggestion; so do unknown enum/registry values.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "fed/config.hpp"

namespace fp::exp {

/// FP_BENCH_FAST=1 shrinks every training run ~4x (CI smoke). Shared by the
/// bench binaries and the spec resolution of auto-sized fields.
bool fast_mode();
std::int64_t scaled(std::int64_t n);
std::int64_t scaled(std::int64_t n, bool fast);

/// The bench-scenario FlConfig defaults (the paper tables' scenario).
/// Sentinels mark fields resolved later: local_iters = -1, rounds = 0,
/// seed = 0, mem.device_mem_scale = 0.
fed::FlConfig default_fl_config();

struct ExperimentSpec {
  // what to run
  std::string method = "FedProphet";
  std::string workload = "cifar";        ///< workload registry key
  std::string heterogeneity = "balanced";
  std::string model = "auto";            ///< model registry key; auto = workload default
  std::int64_t model_image = 16;
  std::int64_t model_width = 6;
  std::int64_t model_classes = 0;        ///< 0 = workload default
  std::int64_t train_size = 0;           ///< 0 = workload default (FAST-scaled)
  std::int64_t test_size = 320;

  // the full federated config, including async.*/comm.*/mem.*
  fed::FlConfig fl = default_fl_config();

  // environment (fed::FedEnvConfig surface)
  bool with_public_set = true;
  double public_fraction = 0.1;
  bool persistent_devices = false;
  // scale plane (DESIGN.md §9): plan-backed pools + residency knobs
  bool env_lazy_clients = false;
  bool env_lazy_materialize = false;
  std::int64_t env_shard_size = 0;       ///< 0 = train_size / num_clients
  std::int64_t env_client_cache = 0;     ///< 0 = ClientPool default (256)
  std::int64_t env_iter_cache = 0;       ///< 0 = unbounded (legacy)
  /// Maps paper-scale device memory onto the trainable model's byte scale;
  /// 0 = auto (trainable full-training mem / paper-model full-training mem).
  double device_mem_scale = 0.0;

  // distributed runtime (DESIGN.md §10)
  std::string net_role = "off";     ///< off (single-process) | root | worker
  std::string net_host = "127.0.0.1";  ///< root endpoint host
  std::int64_t net_port = 7171;     ///< root endpoint port (0 = ephemeral)
  std::int64_t net_workers = 2;     ///< workers the root waits for
  double net_timeout_s = 120.0;     ///< root-side per-frame receive timeout
  double net_retry_s = 10.0;        ///< worker connect retry window (seconds)

  // serving plane (DESIGN.md §12): fp_serve / fp_run --api
  std::string serve_host = "127.0.0.1";  ///< bind address
  std::int64_t serve_port = 8080;        ///< bind port (0 = ephemeral, tests)
  std::int64_t serve_max_batch = 32;     ///< samples per batched forward
  double serve_max_delay_ms = 2.0;       ///< micro-batch coalescing window
  std::int64_t serve_queue_cap = 256;    ///< pending-sample bound (503 above)
  std::int64_t serve_max_conns = 64;     ///< concurrent connection bound

  // observability (src/obs/, DESIGN.md §11)
  bool obs_trace = false;        ///< collect spans, write a Chrome trace JSON
  std::string obs_trace_path;    ///< "" = <FP_BENCH_OUT>/<name>.trace.json
  bool obs_metrics = false;      ///< export the counter registry JSON
  std::int64_t obs_sample_kernels = 16;  ///< trace 1 in N kernel entry calls

  // evaluation (attack::RobustEvalConfig surface + snapshot cadence)
  int eval_pgd_steps = 10;
  int eval_aa_steps = 12;
  int eval_aa_restarts = 1;
  std::int64_t eval_max_samples = 0;     ///< 0 = auto (scaled 128); -1 = all
  std::int64_t eval_every = 0;           ///< history snapshot cadence (0 = end only)

  // FedProphet
  double fp_rmin_frac = 0.2;             ///< Rmin as a fraction of full-model mem
  std::int64_t fp_rmin_bytes = 0;        ///< explicit Rmin override (0 = use frac)
  std::int64_t fp_rounds_per_module = 0; ///< 0 = auto (scaled(5) + 1)
  std::int64_t fp_eval_every = 4;
  std::int64_t fp_patience_evals = 0;
  std::int64_t fp_val_samples = 96;
  float fp_mu = 1e-5f;
  float fp_alpha_init = 0.3f;
  float fp_delta_alpha = 0.1f;
  float fp_gamma = 0.05f;
  bool fp_apa = true;
  bool fp_dma = true;

  // knowledge-distillation baselines
  int distill_iters = 8;
  std::int64_t distill_batch = 32;
  float distill_lr = 0.005f;

  // partial-training baselines
  double partial_min_ratio = 0.25;

  /// Adversarial training on clients (jFAT / distillation / partial
  /// baselines; false turns jFAT into plain FedAvg).
  bool adversarial = true;

  /// Budget as a fraction of the planner's full-training peak; > 0 fills
  /// mem.budget_override_bytes at build time when that is unset.
  double mem_budget_frac = 0.0;
};

enum class KeyKind { kInt, kFloat, kBool, kString };

struct KeyDef {
  std::string key;                       ///< dotted name
  KeyKind kind = KeyKind::kString;
  std::string doc;
  std::function<std::string(const ExperimentSpec&)> get;
  /// Parses and stores `value`; throws SpecError on a bad value.
  std::function<void(ExperimentSpec&, const std::string&)> set;
};

/// The full dotted-key table, in canonical (serialization) order.
const std::vector<KeyDef>& spec_schema();

/// Throws SpecError with a nearest-key suggestion for unknown keys.
const KeyDef& find_key(const std::string& key);

void set_key(ExperimentSpec& spec, const std::string& key,
             const std::string& value);
std::string get_key(const ExperimentSpec& spec, const std::string& key);

/// Applies one "key=value" CLI token.
void apply_override(ExperimentSpec& spec, const std::string& key_eq_value);

/// Serializes every schema key as nested JSON (the reproduction artifact).
std::string spec_to_json(const ExperimentSpec& spec);

/// Applies a JSON config (nested or dotted keys) onto `spec`.
void apply_json(ExperimentSpec& spec, const std::string& text);

/// Defaults + JSON config in one step.
ExperimentSpec spec_from_json(const std::string& text);

/// Specs are equal iff every schema key serializes identically.
bool specs_equal(const ExperimentSpec& a, const ExperimentSpec& b);

}  // namespace fp::exp
