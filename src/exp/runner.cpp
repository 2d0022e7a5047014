#include "exp/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "baselines/distillation.hpp"
#include "baselines/fedrbn.hpp"
#include "baselines/jfat.hpp"
#include "baselines/partial_training.hpp"
#include "exp/json.hpp"
#include "fed/history_io.hpp"
#include "fedprophet/fedprophet.hpp"
#include "mem/planner.hpp"
#include "models/zoo.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace fp::exp {

namespace {

sys::Heterogeneity het_of(const ExperimentSpec& spec) {
  return spec.heterogeneity == "unbalanced" ? sys::Heterogeneity::kUnbalanced
                                            : sys::Heterogeneity::kBalanced;
}

/// The default evaluation hook: three-metric robustness of the global model.
std::function<attack::RobustEvalResult(const attack::RobustEvalConfig&)>
default_eval(fed::FederatedAlgorithm* algo, fed::FedEnv& env) {
  return [algo, &env](const attack::RobustEvalConfig& e) {
    return attack::evaluate_robustness(algo->global_model(), env.test, e);
  };
}

MethodRun make_jfat(Setup& s) {
  baselines::JFatConfig cfg;
  cfg.fl = s.spec.fl;
  cfg.model_spec = s.model;
  cfg.adversarial = s.spec.adversarial;
  MethodRun run;
  auto algo = std::make_unique<baselines::JFat>(s.env, cfg);
  run.train = [a = algo.get(), ev = s.spec.eval_every] { a->run(ev); };
  run.evaluate = default_eval(algo.get(), s.env);
  run.algo = std::move(algo);
  return run;
}

MethodRun make_distillation(Setup& s, bool ensemble) {
  baselines::DistillationConfig cfg;
  cfg.fl = s.spec.fl;
  cfg.family = s.kd_family;
  cfg.ensemble_transfer = ensemble;
  cfg.distill_iters = s.spec.distill_iters;
  cfg.distill_batch = s.spec.distill_batch;
  cfg.distill_lr = s.spec.distill_lr;
  cfg.device_mem_scale = s.device_mem_scale;
  cfg.adversarial = s.spec.adversarial;
  MethodRun run;
  auto algo = std::make_unique<baselines::DistillationFAT>(s.env, cfg);
  run.train = [a = algo.get(), ev = s.spec.eval_every] { a->run(ev); };
  run.evaluate = default_eval(algo.get(), s.env);
  run.algo = std::move(algo);
  return run;
}

MethodRun make_partial(Setup& s, models::SliceScheme scheme) {
  baselines::PartialTrainingConfig cfg;
  cfg.fl = s.spec.fl;
  cfg.model_spec = s.model;
  cfg.scheme = scheme;
  cfg.device_mem_scale = s.device_mem_scale;
  cfg.min_ratio = s.spec.partial_min_ratio;
  cfg.adversarial = s.spec.adversarial;
  MethodRun run;
  auto algo = std::make_unique<baselines::PartialTrainingFAT>(s.env, cfg);
  run.train = [a = algo.get(), ev = s.spec.eval_every] { a->run(ev); };
  run.evaluate = default_eval(algo.get(), s.env);
  run.algo = std::move(algo);
  return run;
}

MethodRun make_fedrbn(Setup& s) {
  baselines::FedRbnConfig cfg;
  cfg.fl = s.spec.fl;
  cfg.model_spec = s.model;
  cfg.device_mem_scale = s.device_mem_scale;
  MethodRun run;
  // Which BN bank to serve is an evaluation-time choice, not part of the
  // checkpoint — FedRBN has no single deployable global model.
  run.single_global_model = false;
  auto algo = std::make_unique<baselines::FedRbn>(s.env, cfg);
  run.train = [a = algo.get(), ev = s.spec.eval_every] { a->run(ev); };
  // Dual-BN evaluation: clean bank for clean accuracy, adversarial bank for
  // the attacks.
  run.evaluate = [a = algo.get(), &env = s.env](
                     const attack::RobustEvalConfig& e) {
    attack::RobustEvalResult m;
    a->use_adv_bank(false);
    m.clean_acc = attack::evaluate_clean(a->global_model(), env.test,
                                         e.batch_size, e.max_samples, e.compute);
    a->use_adv_bank(true);
    const auto adv = attack::evaluate_robustness(a->global_model(), env.test, e);
    m.pgd_acc = adv.pgd_acc;
    m.aa_acc = adv.aa_acc;
    a->use_adv_bank(false);
    return m;
  };
  run.algo = std::move(algo);
  return run;
}

MethodRun make_fedprophet(Setup& s) {
  fedprophet::FedProphetConfig cfg;
  cfg.fl = s.spec.fl;
  cfg.model_spec = s.model;
  cfg.rmin_bytes = s.rmin;
  cfg.rounds_per_module = s.spec.fp_rounds_per_module;
  cfg.eval_every = s.spec.fp_eval_every;
  cfg.patience_evals = s.spec.fp_patience_evals;
  cfg.mu = s.spec.fp_mu;
  cfg.alpha_init = s.spec.fp_alpha_init;
  cfg.delta_alpha = s.spec.fp_delta_alpha;
  cfg.gamma = s.spec.fp_gamma;
  cfg.apa = s.spec.fp_apa;
  cfg.dma = s.spec.fp_dma;
  cfg.device_mem_scale = s.device_mem_scale;
  cfg.val_samples = s.spec.fp_val_samples;
  MethodRun run;
  auto algo = std::make_unique<fedprophet::FedProphet>(s.env, cfg);
  run.train = [a = algo.get()] { a->train(); };
  run.evaluate = default_eval(algo.get(), s.env);
  run.algo = std::move(algo);
  return run;
}

}  // namespace

Registry<MethodFactory>& method_registry() {
  static Registry<MethodFactory> reg = [] {
    Registry<MethodFactory> r("method");
    r.add("jFAT", make_jfat,
          "joint federated adversarial training of the full model");
    r.add("FedDF-AT", [](Setup& s) { return make_distillation(s, false); },
          "per-architecture FedAvg + ensemble distillation fusion");
    r.add("FedET-AT", [](Setup& s) { return make_distillation(s, true); },
          "ensemble knowledge transfer with confidence weighting");
    r.add("HeteroFL-AT", [](Setup& s) {
            return make_partial(s, models::SliceScheme::kStatic);
          },
          "static-slice partial training");
    r.add("FedDrop-AT", [](Setup& s) {
            return make_partial(s, models::SliceScheme::kRandom);
          },
          "random-slice partial training (federated dropout)");
    r.add("FedRolex-AT", [](Setup& s) {
            return make_partial(s, models::SliceScheme::kRolling);
          },
          "rolling-slice partial training");
    r.add("FedRBN", make_fedrbn, "dual-BN robustness propagation");
    r.add("FedProphet", make_fedprophet,
          "memory-efficient cascade learning with APA + DMA (the paper)");
    return r;
  }();
  return reg;
}

const std::vector<std::string>& method_names() {
  static const std::vector<std::string> names = method_registry().names();
  return names;
}

namespace {

/// Builds the model family and fills every derived scale — in the Setup
/// (full_mem, device_mem_scale, rmin) and in the spec itself (active-mem
/// pricing scale, budget-fraction bytes). `spec` must already be resolved.
/// Data- and environment-free, so spec-only consumers (resolve_full) share
/// it with build_setup.
void build_models(ExperimentSpec& spec, Setup& s) {
  const WorkloadInfo& wl = workload_registry().resolve(spec.workload);
  const ModelParams mp{spec.model_image, spec.model_classes, spec.model_width};
  s.model = model_registry().resolve(spec.model)(mp);
  s.small_model = model_registry().resolve("tiny_cnn")(mp);
  ModelParams mid = mp;
  mid.width = wl.kd_mid_width;
  s.kd_family = {s.small_model,
                 model_registry().resolve(wl.default_model)(mid), s.model};

  s.full_mem = sys::module_train_mem_bytes(s.model, 0, s.model.atoms.size(),
                                           spec.fl.batch_size, false);
  // Map the GB-scale device fleet onto the KB-scale trainable model so that
  // availability-to-model ratios match the paper's (DESIGN.md §1).
  const sys::ModelSpec paper = wl.paper_spec();
  const auto paper_mem = sys::module_train_mem_bytes(
      paper, 0, paper.atoms.size(), wl.paper_batch, false);
  s.device_mem_scale =
      spec.device_mem_scale > 0
          ? spec.device_mem_scale
          : static_cast<double>(s.full_mem) / static_cast<double>(paper_mem);
  s.rmin = spec.fp_rmin_bytes > 0
               ? spec.fp_rmin_bytes
               : static_cast<std::int64_t>(spec.fp_rmin_frac *
                                           static_cast<double>(s.full_mem));
  if (spec.fl.mem.device_mem_scale <= 0)
    spec.fl.mem.device_mem_scale =
        spec.fl.mem.active() ? s.device_mem_scale : 1.0;
  if (spec.mem_budget_frac > 0 && spec.fl.mem.budget_override_bytes == 0)
    spec.fl.mem.budget_override_bytes = static_cast<std::int64_t>(
        spec.mem_budget_frac *
        static_cast<double>(planned_full_peak(s.model, spec.fl.batch_size)));
}

}  // namespace

Setup build_setup(ExperimentSpec spec) {
  resolve_spec(spec);
  const WorkloadInfo& wl = workload_registry().resolve(spec.workload);

  Setup s;
  data::SyntheticConfig dcfg = wl.synth();
  dcfg.num_classes = spec.model_classes;
  dcfg.train_size = spec.train_size;
  dcfg.test_size = spec.test_size;
  // Plan-backed pools never synthesize the monolithic training set — shards
  // stream from the plan on dispatch (DESIGN.md §9) — so the only eager
  // tensors are the test/public splits the env renders itself.
  const bool plan_backed = spec.env_lazy_clients || spec.env_lazy_materialize;
  if (!plan_backed) s.data = data::make_synthetic(dcfg);

  build_models(spec, s);

  fed::FedEnvConfig ecfg;
  ecfg.fl = spec.fl;
  ecfg.with_public_set = spec.with_public_set;
  ecfg.public_fraction = spec.public_fraction;
  ecfg.heterogeneity = het_of(spec);
  ecfg.cifar_pool = wl.cifar_pool;
  ecfg.persistent_devices = spec.persistent_devices;
  ecfg.lazy_clients = spec.env_lazy_clients;
  ecfg.materialize_plan = spec.env_lazy_materialize;
  ecfg.shard_size = spec.env_shard_size;
  ecfg.client_cache = spec.env_client_cache;
  ecfg.iter_cache = spec.env_iter_cache;
  s.env = plan_backed ? fed::make_lazy_env(dcfg, ecfg, wl.paper_spec())
                      : fed::make_env(s.data, ecfg, wl.paper_spec());
  if (plan_backed) s.data.test = s.env.test;
  s.spec = std::move(spec);
  return s;
}

std::shared_ptr<const data::LazyShardSource> plan_source(ExperimentSpec spec) {
  if (!(spec.env_lazy_clients || spec.env_lazy_materialize)) return nullptr;
  resolve_spec(spec);
  const WorkloadInfo& wl = workload_registry().resolve(spec.workload);
  data::SyntheticConfig dcfg = wl.synth();
  dcfg.num_classes = spec.model_classes;
  dcfg.train_size = spec.train_size;
  dcfg.test_size = spec.test_size;
  data::ShardPlan plan;
  plan.synth = dcfg;
  plan.num_clients = spec.fl.num_clients;
  plan.shard_size = spec.env_shard_size > 0
                        ? spec.env_shard_size
                        : std::max<std::int64_t>(
                              spec.fl.batch_size,
                              dcfg.train_size /
                                  std::max<std::int64_t>(1, spec.fl.num_clients));
  const data::PartitionConfig pcfg;
  plan.major_class_fraction = pcfg.major_class_fraction;
  plan.major_data_fraction = pcfg.major_data_fraction;
  return std::make_shared<const data::LazyShardSource>(plan);
}

ExperimentSpec resolve_full(ExperimentSpec spec) {
  resolve_spec(spec);
  Setup scratch;
  build_models(spec, scratch);
  return spec;
}

std::int64_t planned_full_peak(const sys::ModelSpec& model,
                               std::int64_t batch_size) {
  mem::PlanRequest req;
  req.atom_begin = 0;
  req.atom_end = model.atoms.size();
  req.batch_size = batch_size;
  req.resident_extra_bytes = mem::replica_resident_bytes(
      model, 0, model.atoms.size(), batch_size, 0);
  return mem::plan_module_memory(model, req).peak_bytes;
}

attack::RobustEvalConfig eval_config(const ExperimentSpec& spec) {
  attack::RobustEvalConfig e;
  e.epsilon = spec.fl.epsilon0;
  e.pgd_steps = spec.eval_pgd_steps;
  e.aa_steps = spec.eval_aa_steps;
  e.aa_restarts = spec.eval_aa_restarts;
  e.max_samples = spec.eval_max_samples;
  e.compute = spec.fl.compute;
  return e;
}

RunResult run_on_setup(Setup& setup, const std::string& label) {
  const MethodFactory& factory = method_registry().resolve(setup.spec.method);
  MethodRun run = factory(setup);
  return run_built(setup, run, label);
}

namespace {

/// FP_BENCH_OUT/<name><suffix> when export is on, <name><suffix> otherwise.
std::string obs_artifact_path(const std::string& name,
                              const std::string& suffix) {
  const std::string base = fed::sanitize_filename(name) + suffix;
  const char* dir = std::getenv("FP_BENCH_OUT");
  return (dir && dir[0]) ? std::string(dir) + "/" + base : base;
}

}  // namespace

RunResult run_built(Setup& setup, MethodRun& run, const std::string& label) {
  obs::ObsSettings obs_settings;
  obs_settings.trace = setup.spec.obs_trace;
  obs_settings.trace_path = setup.spec.obs_trace_path;
  obs_settings.metrics = setup.spec.obs_metrics;
  obs_settings.sample_kernels = setup.spec.obs_sample_kernels;
  obs::configure(obs_settings);
  obs::set_thread_name("fp-engine");
  obs::phase_reset();
  const double wall0 = obs::now_s();

  run.train();

  RunResult r;
  r.name = label.empty() ? setup.spec.method : label;
  r.sim_time = run.algo->sim_time();
  r.history = run.algo->history();
  const fed::RoundStats& stats = run.algo->total_stats();
  r.bytes_up = stats.bytes_up;
  r.bytes_down = stats.bytes_down;
  r.peak_mem_bytes = stats.peak_mem_bytes;
  r.over_budget = stats.over_budget;
  r.dropped = stats.dropped_stragglers + stats.dropped_out;
  r.unique_participants = stats.unique_participants;
  r.agg_bytes_saved = stats.agg_bytes_saved;
  r.measured_comm_s = stats.measured_comm_s;
  r.exported_csv = export_run_artifacts(setup.spec, r.name, r.history);
  {
    // Outermost eval bracket: method-specific evaluation glue (dual-BN bank
    // switching, cascade assembly) counts too; the attack entry points'
    // nested timers are depth-guarded and don't double-count.
    obs::PhaseTimer eval_phase(obs::Phase::kEval);
    FP_TRACE_SCOPE("evaluate", "engine");
    r.metrics = run.evaluate(eval_config(setup.spec));
  }
  r.wall_s = obs::now_s() - wall0;
  r.phases = obs::phase_snapshot();

  if (obs_settings.trace) {
    std::string path = obs_settings.trace_path;
    if (path.empty()) path = obs_artifact_path(r.name, ".trace.json");
    if (obs::write_trace_json(path))
      r.trace_path = path;
    else
      obs::logf(obs::LogLevel::kInfo, "warning: failed to write trace %s",
                path.c_str());
  }
  if (obs_settings.metrics) {
    std::string path;
    if (!r.exported_csv.empty()) {
      path = r.exported_csv;
      path.replace(path.size() - 4, 4, ".metrics.json");
    } else {
      path = obs_artifact_path(r.name, ".metrics.json");
    }
    if (obs::write_metrics_json(path))
      r.metrics_path = path;
    else
      obs::logf(obs::LogLevel::kInfo, "warning: failed to write metrics %s",
                path.c_str());
  }
  return r;
}

RunResult run_experiment(ExperimentSpec spec, const std::string& label) {
  Setup setup = build_setup(std::move(spec));
  return run_on_setup(setup, label);
}

std::string export_run_artifacts(const ExperimentSpec& spec,
                                 const std::string& name,
                                 const fed::History& history) {
  const std::string csv = fed::export_history_path(name);
  if (csv.empty()) return {};
  if (!fed::write_history_csv(csv, history)) return {};
  // <name>.spec.json next to <name>.csv: the reproduction artifact. A failed
  // write must not pass silently — the artifact IS the point of the export.
  std::string spec_path = csv;
  spec_path.replace(spec_path.size() - 4, 4, ".spec.json");
  if (!write_text_file(spec_path, spec_to_json(spec)))
    obs::logf(obs::LogLevel::kInfo,
              "warning: failed to write reproduction spec %s",
              spec_path.c_str());
  return csv;
}

void print_comm_line(const RunResult& r, const fed::FlConfig& fl) {
  std::printf("    [comm] %-12s codec=%-8s up %8.2f MB  down %8.2f MB\n",
              r.name.c_str(), comm::codec_name(fl.comm.codec),
              static_cast<double>(r.bytes_up) / 1e6,
              static_cast<double>(r.bytes_down) / 1e6);
}

void print_mem_line(const RunResult& r, const Setup& s) {
  // The printed plan is the FULL trainable backbone's training peak — a fixed
  // scale reference, not a per-method prediction (sub-model and cascade
  // methods train less than the full backbone and measure below it).
  const auto plan = planned_full_peak(s.model, s.spec.fl.batch_size);
  char measured[48];
  if (r.peak_mem_bytes > 0)
    std::snprintf(measured, sizeof(measured), "%8.2f MB",
                  static_cast<double>(r.peak_mem_bytes) / 1e6);
  else
    std::snprintf(measured, sizeof(measured), "%10s", "off");
  std::printf(
      "    [mem]  %-12s full-plan %8.2f MB  measured %s  ckpt %-3s  "
      "over-budget %zu\n",
      r.name.c_str(), static_cast<double>(plan) / 1e6, measured,
      s.spec.fl.mem.checkpointing ? "on" : "off", r.over_budget);
}

void print_net_line(const RunResult& r) {
  if (r.net_workers == 0) return;
  std::printf(
      "    [net]  %-12s workers %zu  tx %8.2f MB  rx %8.2f MB  "
      "measured %.3g s  modeled %.3g s\n",
      r.name.c_str(), r.net_workers, static_cast<double>(r.net_tx_bytes) / 1e6,
      static_cast<double>(r.net_rx_bytes) / 1e6, r.measured_comm_s,
      r.sim_time.comm_s);
}

void print_obs_line(const RunResult& r) {
  const obs::PhaseBreakdown& p = r.phases;
  std::printf(
      "    [obs]  %-12s wall %.3g s  sample %.3g  train %.3g  "
      "aggregate %.3g  eval %.3g  (encode %.3g, nested in train)\n",
      r.name.c_str(), r.wall_s, p.sample_s, p.train_s, p.aggregate_s, p.eval_s,
      p.encode_s);
}

void print_run_summary(const Setup& s, const RunResult& r) {
  const WorkloadInfo& wl = workload_registry().resolve(s.spec.workload);
  std::printf("\n-- %s · %s · %s scheduler · %s fleet --\n", r.name.c_str(),
              wl.display_name.c_str(), scheduler_key(s.spec.fl.scheduler).c_str(),
              s.spec.heterogeneity.c_str());
  if (!r.history.empty()) {
    std::printf("%8s %8s %8s %10s %10s\n", "round", "clean", "adv", "sim (s)",
                "up (MB)");
    const std::size_t tail = r.history.size() > 6 ? r.history.size() - 6 : 0;
    if (tail > 0) std::printf("     ... (%zu earlier snapshots)\n", tail);
    for (std::size_t i = tail; i < r.history.size(); ++i) {
      const auto& rec = r.history[i];
      std::printf("%8lld %7.1f%% %7.1f%% %10.1f %10.2f\n",
                  static_cast<long long>(rec.round), 100 * rec.clean_acc,
                  100 * rec.adv_acc, rec.sim_time_s,
                  static_cast<double>(rec.bytes_up) / 1e6);
    }
  }
  std::printf("final: clean %.1f%%  PGD %.1f%%  AA-lite %.1f%%\n",
              100 * r.metrics.clean_acc, 100 * r.metrics.pgd_acc,
              100 * r.metrics.aa_acc);
  std::printf("simulated time: %.3g s (compute %.3g, access %.3g, comm %.3g)",
              r.sim_time.total(), r.sim_time.compute_s, r.sim_time.access_s,
              r.sim_time.comm_s);
  if (r.dropped > 0) std::printf("  dropped %zu", r.dropped);
  std::printf("\n");
  print_comm_line(r, s.spec.fl);
  print_mem_line(r, s);
  print_net_line(r);
  print_obs_line(r);
  if (!r.exported_csv.empty())
    std::printf("exported: %s (+ .spec.json)\n", r.exported_csv.c_str());
  if (!r.trace_path.empty())
    std::printf("trace: %s (load in chrome://tracing or ui.perfetto.dev)\n",
                r.trace_path.c_str());
  if (!r.metrics_path.empty())
    std::printf("metrics: %s\n", r.metrics_path.c_str());
}

}  // namespace fp::exp
