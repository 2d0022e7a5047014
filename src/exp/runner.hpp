// Experiment runner: turns a resolved ExperimentSpec into a built Setup
// (data, environment, model family) and drives any registered method through
// training, evaluation, and artifact export (DESIGN.md §7).
//
// The method registry is the single construction path for all eight method
// variants; registry-constructed runs are verified hash-identical to direct
// construction (tests/test_exp.cpp, tests/test_runtime.cpp).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "attack/evaluate.hpp"
#include "exp/registries.hpp"
#include "fed/algorithm.hpp"
#include "obs/metrics.hpp"

namespace fp::exp {

/// Everything one experiment run needs, built from a resolved spec.
struct Setup {
  ExperimentSpec spec;  ///< fully resolved (resolve_spec applied)
  data::TrainTest data;
  fed::FedEnv env;
  sys::ModelSpec model;        ///< trainable backbone
  sys::ModelSpec small_model;  ///< "small" baseline (tiny_cnn)
  std::vector<sys::ModelSpec> kd_family;
  std::int64_t full_mem = 0;   ///< full trainable-model training memory
  double device_mem_scale = 1.0;
  std::int64_t rmin = 0;
};

/// Resolves the spec and builds dataset, model family, and environment.
Setup build_setup(ExperimentSpec spec);

/// Metadata-only view of a plan-backed pool (env.lazy_clients /
/// env.lazy_materialize): the same ShardPlan build_setup's env would carry,
/// without synthesizing any shard, test, or public tensors. Returns nullptr
/// for eager specs. What `fp_run --plan` uses.
std::shared_ptr<const data::LazyShardSource> plan_source(ExperimentSpec spec);

/// Fully resolves a spec — including the build-time autos that need the
/// model family (active-mem pricing scale, mem.budget_frac bytes) — without
/// synthesizing the dataset or environment. What `fp_run --dump-spec` uses.
ExperimentSpec resolve_full(ExperimentSpec spec);

/// Planned full-training peak of a backbone (the mem.budget_frac anchor and
/// the [mem] summary's fixed scale reference).
std::int64_t planned_full_peak(const sys::ModelSpec& model,
                               std::int64_t batch_size);

/// A constructed, ready-to-train method instance. `train` runs the method's
/// full protocol (run() or FedProphet's cascade train()); `evaluate` applies
/// the method's evaluation convention (e.g. FedRBN's dual-BN banks).
struct MethodRun {
  std::unique_ptr<fed::FederatedAlgorithm> algo;
  std::function<void()> train;
  std::function<attack::RobustEvalResult(const attack::RobustEvalConfig&)>
      evaluate;
  /// Whether algo->global_model() alone is the deployable artifact. FedRBN
  /// sets this false: its dual-BN banks make a bank choice part of the
  /// model, so `fp_run --save-model` refuses rather than exporting an
  /// ambiguous checkpoint.
  bool single_global_model = true;
};

using MethodFactory = std::function<MethodRun(Setup&)>;

/// All eight method variants: jFAT, FedDF-AT, FedET-AT, HeteroFL-AT,
/// FedDrop-AT, FedRolex-AT, FedRBN, FedProphet.
Registry<MethodFactory>& method_registry();

/// What one trained run produced.
struct RunResult {
  std::string name;
  attack::RobustEvalResult metrics;
  fed::TimeBreakdown sim_time;
  fed::History history;
  std::int64_t bytes_up = 0;        ///< cumulative wire bytes uploaded
  std::int64_t bytes_down = 0;      ///< cumulative wire bytes downloaded
  std::int64_t peak_mem_bytes = 0;  ///< max measured client peak (0 = mem off)
  std::size_t over_budget = 0;      ///< budget violations across the run
  std::size_t dropped = 0;          ///< straggler-cutoff + dropout discards
  std::int64_t unique_participants = 0;  ///< distinct clients ever dispatched
  std::int64_t agg_bytes_saved = 0;      ///< backbone bytes the edge tier merged away
  /// Distributed-root run (net.role=root; all zero single-process): real
  /// socket traffic and measured transfer seconds next to the modeled comm_s.
  double measured_comm_s = 0.0;
  std::int64_t net_tx_bytes = 0;
  std::int64_t net_rx_bytes = 0;
  std::size_t net_workers = 0;
  std::string exported_csv;         ///< FP_BENCH_OUT trajectory path ("" = off)
  /// Observability plane (src/obs/, DESIGN.md §11): real wall-clock of
  /// train + eval, the per-phase breakdown behind the [obs] summary line,
  /// and the exported artifact paths ("" = off or write failed).
  double wall_s = 0.0;
  obs::PhaseBreakdown phases;
  std::string trace_path;
  std::string metrics_path;
};

/// The final-evaluation config addressed by the eval.* keys.
attack::RobustEvalConfig eval_config(const ExperimentSpec& spec);

/// Trains spec.method on an already-built setup (reusing its env — repeat
/// calls continue the same device/degradation streams, as the bench tables
/// rely on), evaluates, and exports artifacts. `label` overrides the result/
/// export name (default: the method name).
RunResult run_on_setup(Setup& setup, const std::string& label = "");

/// Trains an ALREADY-CONSTRUCTED method instance on its setup — what
/// run_on_setup does after the factory call. The distributed root
/// (net::serve_root) constructs the method early to validate net-capability
/// before accepting workers, then drives training through this.
RunResult run_built(Setup& setup, MethodRun& run, const std::string& label = "");

/// Fresh setup + run_on_setup: the fp_run / scenario-bench entry point.
RunResult run_experiment(ExperimentSpec spec, const std::string& label = "");

/// When FP_BENCH_OUT is set, writes `<name>.csv` (trajectory) and
/// `<name>.spec.json` (the fully-resolved spec — `fp_run --config <it>`
/// reproduces the run). Returns the CSV path, or "" when export is off.
std::string export_run_artifacts(const ExperimentSpec& spec,
                                 const std::string& name,
                                 const fed::History& history);

/// One [comm] wire-traffic line for a trained run.
void print_comm_line(const RunResult& r, const fed::FlConfig& fl);

/// One [mem] planned-vs-measured line for a trained run.
void print_mem_line(const RunResult& r, const Setup& s);

/// One [net] measured-vs-modeled transfer line for a distributed-root run
/// (no-op when r.net_workers == 0).
void print_net_line(const RunResult& r);

/// One [obs] wall-clock phase-breakdown line for a trained run.
void print_obs_line(const RunResult& r);

/// fp_run's report: history tail, final metrics, time/comm/mem summaries.
void print_run_summary(const Setup& s, const RunResult& r);

}  // namespace fp::exp
