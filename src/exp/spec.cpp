#include "exp/spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string_view>
#include <type_traits>

#include "exp/json.hpp"
#include "exp/registries.hpp"

namespace fp::exp {

bool fast_mode() {
  const char* v = std::getenv("FP_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

std::int64_t scaled(std::int64_t n, bool fast) {
  return fast ? (n + 3) / 4 : n;
}

std::int64_t scaled(std::int64_t n) { return scaled(n, fast_mode()); }

fed::FlConfig default_fl_config() {
  fed::FlConfig fl;
  fl.num_clients = 10;
  fl.clients_per_round = 4;
  fl.local_iters = -1;  // auto: FP_BENCH_FAST ? 2 : 4
  fl.batch_size = 16;
  fl.rounds = 0;        // auto: scaled(12) for jFAT, scaled(16) otherwise
  fl.pgd_steps = 3;     // PGD-3 training at bench scale (paper: PGD-10)
  fl.lr0 = 0.05f;
  fl.sgd.lr = 0.05f;
  fl.lr_decay = 0.99f;
  fl.seed = 0;          // auto: 1234 + workload/heterogeneity offsets
  fl.mem.device_mem_scale = 0.0;  // auto: the setup's trainable/paper ratio
  return fl;
}

namespace {

// ---- scalar parsing / formatting --------------------------------------------

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* want) {
  throw SpecError("bad value '" + value + "' for key '" + key + "' (expected " +
                  want + ")");
}

/// Overflow-checked integer parsing into the field's exact type: a value the
/// field cannot represent must fail loudly, or the exported resolved spec
/// would silently replay a different configuration.
template <class Field>
Field parse_integral(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_unsigned_v<Field>) {
    if (!value.empty() && value[0] == '-')
      bad_value(key, value, "a non-negative integer");
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        v > static_cast<unsigned long long>(std::numeric_limits<Field>::max()))
      bad_value(key, value, "an integer in range");
    return static_cast<Field>(v);
  } else {
    const long long v = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        v < static_cast<long long>(std::numeric_limits<Field>::min()) ||
        v > static_cast<long long>(std::numeric_limits<Field>::max()))
      bad_value(key, value, "an integer in range");
    return static_cast<Field>(v);
  }
}

double parse_num(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  // Overflow and non-finite inputs must fail loudly: an inf/nan would train
  // garbage AND serialize as invalid JSON in the reproduction artifact.
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v))
    bad_value(key, value, "a finite number");
  return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  bad_value(key, value, "a boolean (true/false/1/0)");
}

// ---- KeyDef builders ---------------------------------------------------------

/// One numeric/bool key bound to a member reference. `Ref` maps a spec to the
/// field; the field's type selects parsing, formatting, and the JSON kind.
template <class Ref>
KeyDef field_key(std::string key, std::string doc, Ref ref) {
  using Field = std::remove_reference_t<decltype(ref(
      std::declval<ExperimentSpec&>()))>;
  KeyDef def;
  def.key = key;
  def.doc = std::move(doc);
  if constexpr (std::is_same_v<Field, bool>) {
    def.kind = KeyKind::kBool;
    def.get = [ref](const ExperimentSpec& s) {
      return ref(const_cast<ExperimentSpec&>(s)) ? "true" : "false";
    };
    def.set = [ref, key](ExperimentSpec& s, const std::string& v) {
      ref(s) = parse_bool(key, v);
    };
  } else if constexpr (std::is_same_v<Field, float>) {
    def.kind = KeyKind::kFloat;
    def.get = [ref](const ExperimentSpec& s) {
      return format_float(ref(const_cast<ExperimentSpec&>(s)));
    };
    def.set = [ref, key](ExperimentSpec& s, const std::string& v) {
      const float f = static_cast<float>(parse_num(key, v));
      if (!std::isfinite(f)) bad_value(key, v, "a finite number");
      ref(s) = f;
    };
  } else if constexpr (std::is_same_v<Field, double>) {
    def.kind = KeyKind::kFloat;
    def.get = [ref](const ExperimentSpec& s) {
      return format_double(ref(const_cast<ExperimentSpec&>(s)));
    };
    def.set = [ref, key](ExperimentSpec& s, const std::string& v) {
      ref(s) = parse_num(key, v);
    };
  } else {
    static_assert(std::is_integral_v<Field>);
    def.kind = KeyKind::kInt;
    def.get = [ref](const ExperimentSpec& s) {
      return std::to_string(ref(const_cast<ExperimentSpec&>(s)));
    };
    def.set = [ref, key](ExperimentSpec& s, const std::string& v) {
      ref(s) = parse_integral<Field>(key, v);
    };
  }
  return def;
}

/// A free-form or registry-validated string key. When `validate` is set, it
/// throws SpecError (with suggestions) on unknown values.
template <class Ref>
KeyDef string_key(std::string key, std::string doc, Ref ref,
                  std::function<void(const std::string&)> validate = {}) {
  KeyDef def;
  def.key = std::move(key);
  def.kind = KeyKind::kString;
  def.doc = std::move(doc);
  def.get = [ref](const ExperimentSpec& s) {
    return ref(const_cast<ExperimentSpec&>(s));
  };
  def.set = [ref, validate](ExperimentSpec& s, const std::string& v) {
    if (validate) validate(v);
    ref(s) = v;
  };
  return def;
}

std::vector<KeyDef> build_schema() {
  std::vector<KeyDef> keys;
  auto add = [&keys](KeyDef def) { keys.push_back(std::move(def)); };

  // ---- what to run ----------------------------------------------------------
  add(string_key(
      "method", "training method (fp_run --list)",
      [](ExperimentSpec& s) -> std::string& { return s.method; },
      [](const std::string& v) {
        const auto& names = method_names();
        for (const auto& n : names)
          if (n == v) return;
        throw SpecError(unknown_name_message("method", v, names));
      }));
  add(string_key(
      "workload", "dataset/device-pool scenario (cifar, caltech)",
      [](ExperimentSpec& s) -> std::string& { return s.workload; },
      [](const std::string& v) { workload_registry().resolve(v); }));
  add(string_key(
      "heterogeneity", "fleet sampling: balanced or unbalanced",
      [](ExperimentSpec& s) -> std::string& { return s.heterogeneity; },
      [](const std::string& v) {
        if (v != "balanced" && v != "unbalanced")
          throw SpecError(unknown_name_message("heterogeneity", v,
                                               {"balanced", "unbalanced"}));
      }));
  add(string_key(
      "model.name", "trainable backbone (model registry key; auto = workload default)",
      [](ExperimentSpec& s) -> std::string& { return s.model; },
      [](const std::string& v) {
        if (v != "auto") model_registry().resolve(v);
      }));
  add(field_key("model.image", "input image side length",
                [](ExperimentSpec& s) -> std::int64_t& { return s.model_image; }));
  add(field_key("model.width", "width multiplier of the tiny models",
                [](ExperimentSpec& s) -> std::int64_t& { return s.model_width; }));
  add(field_key("model.classes", "output classes (0 = workload default)",
                [](ExperimentSpec& s) -> std::int64_t& { return s.model_classes; }));
  add(field_key("data.train_size", "training samples (0 = workload default)",
                [](ExperimentSpec& s) -> std::int64_t& { return s.train_size; }));
  add(field_key("data.test_size", "test samples",
                [](ExperimentSpec& s) -> std::int64_t& { return s.test_size; }));

  // ---- fed::FlConfig --------------------------------------------------------
  add(field_key("fl.num_clients", "total clients N",
                [](ExperimentSpec& s) -> std::int64_t& { return s.fl.num_clients; }));
  add(field_key("fl.clients_per_round", "clients sampled per round C",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.fl.clients_per_round;
                }));
  add(field_key("fl.local_iters", "local SGD steps E (-1 = auto: fast? 2 : 4)",
                [](ExperimentSpec& s) -> std::int64_t& { return s.fl.local_iters; }));
  add(field_key("fl.batch_size", "local minibatch size B",
                [](ExperimentSpec& s) -> std::int64_t& { return s.fl.batch_size; }));
  add(field_key("fl.rounds", "server rounds (0 = auto: scaled 12 jFAT / 16 others)",
                [](ExperimentSpec& s) -> std::int64_t& { return s.fl.rounds; }));
  add(field_key("fl.lr0", "initial learning rate",
                [](ExperimentSpec& s) -> float& { return s.fl.lr0; }));
  add(field_key("fl.lr_decay", "per-round exponential lr decay",
                [](ExperimentSpec& s) -> float& { return s.fl.lr_decay; }));
  add(field_key("fl.sgd.lr", "SGD step size (kept equal to fl.lr0 by convention)",
                [](ExperimentSpec& s) -> float& { return s.fl.sgd.lr; }));
  add(field_key("fl.sgd.momentum", "SGD momentum",
                [](ExperimentSpec& s) -> float& { return s.fl.sgd.momentum; }));
  add(field_key("fl.sgd.weight_decay", "SGD weight decay",
                [](ExperimentSpec& s) -> float& { return s.fl.sgd.weight_decay; }));
  add(field_key("fl.pgd_steps", "PGD-n adversarial training steps",
                [](ExperimentSpec& s) -> int& { return s.fl.pgd_steps; }));
  add(field_key("fl.epsilon0", "input perturbation bound",
                [](ExperimentSpec& s) -> float& { return s.fl.epsilon0; }));
  add(field_key("fl.seed", "experiment seed (0 = auto: 1234 + workload offsets)",
                [](ExperimentSpec& s) -> std::uint64_t& { return s.fl.seed; }));
  {
    KeyDef def;
    def.key = "fl.scheduler";
    def.kind = KeyKind::kString;
    def.doc = "round scheduler: sync (barrier) or async (event-driven)";
    def.get = [](const ExperimentSpec& s) { return scheduler_key(s.fl.scheduler); };
    def.set = [](ExperimentSpec& s, const std::string& v) {
      s.fl.scheduler = scheduler_registry().resolve(v);
    };
    add(std::move(def));
  }

  // ---- fed::AsyncConfig -----------------------------------------------------
  add(field_key("async.concurrency", "in-flight clients (0 = clients_per_round)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.fl.async.concurrency;
                }));
  add(field_key("async.alpha", "FedAsync base mixing rate",
                [](ExperimentSpec& s) -> double& { return s.fl.async.alpha; }));
  add(field_key("async.straggler_cutoff_s",
                "discard updates slower than this many simulated seconds (0 = off)",
                [](ExperimentSpec& s) -> double& {
                  return s.fl.async.straggler_cutoff_s;
                }));
  add(field_key("async.dropout_prob", "probability a dispatched client vanishes",
                [](ExperimentSpec& s) -> double& {
                  return s.fl.async.dropout_prob;
                }));
  add(field_key("async.scale_by_data", "scale mixing by relative shard size",
                [](ExperimentSpec& s) -> bool& { return s.fl.async.scale_by_data; }));
  add(field_key("async.min_mix", "floor on the applied mixing coefficient",
                [](ExperimentSpec& s) -> double& { return s.fl.async.min_mix; }));

  // ---- comm::CommConfig -----------------------------------------------------
  {
    KeyDef def;
    def.key = "comm.codec";
    def.kind = KeyKind::kString;
    def.doc = "wire codec: identity, fp16, int8, topk";
    def.get = [](const ExperimentSpec& s) { return codec_key(s.fl.comm.codec); };
    def.set = [](ExperimentSpec& s, const std::string& v) {
      s.fl.comm.codec = codec_registry().resolve(v).kind;
    };
    add(std::move(def));
  }
  add(field_key("comm.topk_fraction", "TopK: fraction of coordinates kept",
                [](ExperimentSpec& s) -> double& {
                  return s.fl.comm.topk_fraction;
                }));
  add(field_key("comm.topk_delta", "TopK: select by |update - broadcast|",
                [](ExperimentSpec& s) -> bool& { return s.fl.comm.topk_delta; }));
  add(field_key("comm.compress_downlink", "run broadcasts through the codec too",
                [](ExperimentSpec& s) -> bool& {
                  return s.fl.comm.compress_downlink;
                }));
  add(field_key("comm.model_network",
                "price wire bytes into simulated time (comm::NetworkModel)",
                [](ExperimentSpec& s) -> bool& { return s.fl.comm.model_network; }));

  // ---- mem::MemConfig -------------------------------------------------------
  add(field_key("mem.measure", "track per-client training peaks in an arena",
                [](ExperimentSpec& s) -> bool& { return s.fl.mem.measure; }));
  add(field_key("mem.enforce_budget", "derive and enforce per-client budgets",
                [](ExperimentSpec& s) -> bool& { return s.fl.mem.enforce_budget; }));
  add(field_key("mem.checkpointing",
                "activation checkpointing for over-budget clients",
                [](ExperimentSpec& s) -> bool& { return s.fl.mem.checkpointing; }));
  add(field_key("mem.budget_override_bytes",
                "fixed per-client budget in bytes (0 = device-derived)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.fl.mem.budget_override_bytes;
                }));
  add(field_key("mem.budget_frac",
                "budget as a fraction of the planned full-training peak (0 = off)",
                [](ExperimentSpec& s) -> double& { return s.mem_budget_frac; }));
  add(field_key("mem.device_mem_scale",
                "paper-scale -> trainable-scale pricing map (0 = auto)",
                [](ExperimentSpec& s) -> double& {
                  return s.fl.mem.device_mem_scale;
                }));

  // ---- compute::ComputeConfig -----------------------------------------------
  {
    KeyDef def;
    def.key = "compute.precision";
    def.kind = KeyKind::kString;
    def.doc = "inference-forward kernels: fp32 or int8 (DESIGN.md §8)";
    def.get = [](const ExperimentSpec& s) {
      return std::string(compute::precision_name(s.fl.compute.precision));
    };
    def.set = [](ExperimentSpec& s, const std::string& v) {
      if (v == "fp32")
        s.fl.compute.precision = compute::Precision::kFp32;
      else if (v == "int8")
        s.fl.compute.precision = compute::Precision::kInt8;
      else
        throw SpecError(
            unknown_name_message("compute.precision", v, {"fp32", "int8"}));
    };
    add(std::move(def));
  }
  add(field_key("compute.winograd",
                "Winograd F(2x2,3x3) for inference 3x3 convolutions",
                [](ExperimentSpec& s) -> bool& { return s.fl.compute.winograd; }));

  // ---- environment ----------------------------------------------------------
  add(field_key("env.public_set", "hold out a server-side public split (KD)",
                [](ExperimentSpec& s) -> bool& { return s.with_public_set; }));
  add(field_key("env.public_fraction", "fraction held out as the public set",
                [](ExperimentSpec& s) -> double& { return s.public_fraction; }));
  add(field_key("env.persistent_devices",
                "bind each client to one device for the whole experiment",
                [](ExperimentSpec& s) -> bool& { return s.persistent_devices; }));
  add(field_key("env.device_mem_scale",
                "method-level device memory multiplier (0 = auto ratio)",
                [](ExperimentSpec& s) -> double& { return s.device_mem_scale; }));

  // ---- scale plane (DESIGN.md §9) -------------------------------------------
  add(field_key("env.lazy_clients",
                "plan-backed pool: synthesize shards on dispatch, O(sampled) "
                "residency",
                [](ExperimentSpec& s) -> bool& { return s.env_lazy_clients; }));
  add(field_key("env.lazy_materialize",
                "materialize every plan-backed shard up front (equivalence runs)",
                [](ExperimentSpec& s) -> bool& {
                  return s.env_lazy_materialize;
                }));
  add(field_key("env.shard_size",
                "samples per plan-backed shard (0 = train_size / num_clients)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.env_shard_size;
                }));
  add(field_key("env.client_cache",
                "LRU capacity for synthesized shards (0 = default 256)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.env_client_cache;
                }));
  add(field_key("env.iter_cache",
                "eager-mode resident batch-iterator cap (0 = unbounded)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.env_iter_cache;
                }));
  add(field_key("env.aggregators",
                "edge aggregators for hierarchical aggregation (0 = flat)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.fl.agg.aggregators;
                }));
  add(field_key("env.agg_up_mbps", "edge->server backbone bandwidth (Mbit/s)",
                [](ExperimentSpec& s) -> double& { return s.fl.agg.up_mbps; }));
  add(field_key("env.agg_latency_s", "edge->server one-way latency (seconds)",
                [](ExperimentSpec& s) -> double& {
                  return s.fl.agg.latency_s;
                }));
  add(field_key("env.churn.enabled", "availability churn process (DESIGN.md §9)",
                [](ExperimentSpec& s) -> bool& { return s.fl.churn.enabled; }));
  add(field_key("env.churn.online_frac",
                "expected fraction of the pool online in any round",
                [](ExperimentSpec& s) -> double& {
                  return s.fl.churn.online_frac;
                }));
  add(field_key("env.churn.period_rounds",
                "rounds between availability re-draws (session length)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.fl.churn.period_rounds;
                }));
  add(field_key("env.churn.drop_prob",
                "probability a dispatched online client drops mid-round",
                [](ExperimentSpec& s) -> double& {
                  return s.fl.churn.drop_prob;
                }));

  // ---- distributed runtime (DESIGN.md §10) ----------------------------------
  add(string_key(
      "net.role", "distributed role: off (single-process), root, or worker",
      [](ExperimentSpec& s) -> std::string& { return s.net_role; },
      [](const std::string& v) {
        if (v != "off" && v != "root" && v != "worker")
          throw SpecError(
              unknown_name_message("net.role", v, {"off", "root", "worker"}));
      }));
  add(string_key(
      "net.host", "root endpoint host",
      [](ExperimentSpec& s) -> std::string& { return s.net_host; }));
  add(field_key("net.port", "root endpoint port (0 = ephemeral, tests)",
                [](ExperimentSpec& s) -> std::int64_t& { return s.net_port; }));
  add(field_key("net.workers", "worker connections the root waits for",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.net_workers;
                }));
  add(field_key("net.timeout_s",
                "root-side receive timeout per frame (seconds; <= 0 = none)",
                [](ExperimentSpec& s) -> double& { return s.net_timeout_s; }));
  add(field_key("net.retry_s", "worker connect retry window (seconds)",
                [](ExperimentSpec& s) -> double& { return s.net_retry_s; }));

  // ---- serving plane (DESIGN.md §12) ----------------------------------------
  add(string_key(
      "serve.host", "inference server bind address",
      [](ExperimentSpec& s) -> std::string& { return s.serve_host; }));
  add(field_key("serve.port", "inference server port (0 = ephemeral, tests)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.serve_port;
                }));
  add(field_key("serve.max_batch",
                "samples coalesced into one batched inference forward",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.serve_max_batch;
                }));
  add(field_key("serve.max_delay_ms",
                "micro-batch coalescing window after the first waiter",
                [](ExperimentSpec& s) -> double& {
                  return s.serve_max_delay_ms;
                }));
  add(field_key("serve.queue_cap",
                "pending-sample bound; requests above it get HTTP 503",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.serve_queue_cap;
                }));
  add(field_key("serve.max_conns", "concurrent HTTP connection bound",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.serve_max_conns;
                }));

  // ---- observability (DESIGN.md §11) ----------------------------------------
  add(field_key("obs.trace",
                "collect spans and write a Chrome trace JSON (fp_run --trace)",
                [](ExperimentSpec& s) -> bool& { return s.obs_trace; }));
  add(string_key(
      "obs.trace_path",
      "trace output path (empty = <FP_BENCH_OUT>/<name>.trace.json)",
      [](ExperimentSpec& s) -> std::string& { return s.obs_trace_path; }));
  add(field_key("obs.metrics",
                "export the counter registry as <name>.metrics.json",
                [](ExperimentSpec& s) -> bool& { return s.obs_metrics; }));
  add(field_key("obs.sample_kernels",
                "trace 1 in N kernel entry calls (GEMM/conv/Winograd)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.obs_sample_kernels;
                }));

  // ---- evaluation -----------------------------------------------------------
  add(field_key("eval.pgd_steps", "PGD steps of the final evaluation",
                [](ExperimentSpec& s) -> int& { return s.eval_pgd_steps; }));
  add(field_key("eval.aa_steps", "AutoAttack-lite APGD iterations",
                [](ExperimentSpec& s) -> int& { return s.eval_aa_steps; }));
  add(field_key("eval.aa_restarts", "APGD random restarts",
                [](ExperimentSpec& s) -> int& { return s.eval_aa_restarts; }));
  add(field_key("eval.max_samples",
                "evaluated samples (0 = auto scaled 128, -1 = whole test set)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.eval_max_samples;
                }));
  add(field_key("eval.every", "history snapshot cadence in rounds (0 = end only)",
                [](ExperimentSpec& s) -> std::int64_t& { return s.eval_every; }));

  // ---- FedProphet -----------------------------------------------------------
  add(field_key("fp.rmin_frac", "Rmin as a fraction of full-model training mem",
                [](ExperimentSpec& s) -> double& { return s.fp_rmin_frac; }));
  add(field_key("fp.rmin_bytes", "explicit Rmin in bytes (0 = use fp.rmin_frac)",
                [](ExperimentSpec& s) -> std::int64_t& { return s.fp_rmin_bytes; }));
  add(field_key("fp.rounds_per_module",
                "rounds per module stage (0 = auto: scaled(5) + 1)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.fp_rounds_per_module;
                }));
  add(field_key("fp.eval_every", "APA / early-stop cadence in rounds",
                [](ExperimentSpec& s) -> std::int64_t& { return s.fp_eval_every; }));
  add(field_key("fp.patience_evals", "early-stop patience (0 = no early stop)",
                [](ExperimentSpec& s) -> std::int64_t& {
                  return s.fp_patience_evals;
                }));
  add(field_key("fp.val_samples", "validation subset for C_m / A_m",
                [](ExperimentSpec& s) -> std::int64_t& { return s.fp_val_samples; }));
  add(field_key("fp.mu", "strong-convexity regularizer",
                [](ExperimentSpec& s) -> float& { return s.fp_mu; }));
  add(field_key("fp.alpha_init", "initial APA mixing weight",
                [](ExperimentSpec& s) -> float& { return s.fp_alpha_init; }));
  add(field_key("fp.delta_alpha", "APA mixing step",
                [](ExperimentSpec& s) -> float& { return s.fp_delta_alpha; }));
  add(field_key("fp.gamma", "APA accuracy-drop tolerance",
                [](ExperimentSpec& s) -> float& { return s.fp_gamma; }));
  add(field_key("fp.apa", "Adaptive Perturbation Adjustment on/off",
                [](ExperimentSpec& s) -> bool& { return s.fp_apa; }));
  add(field_key("fp.dma", "Differentiated Module Assignment on/off",
                [](ExperimentSpec& s) -> bool& { return s.fp_dma; }));

  // ---- other method knobs ---------------------------------------------------
  add(field_key("distill.iters", "server distillation iterations per round",
                [](ExperimentSpec& s) -> int& { return s.distill_iters; }));
  add(field_key("distill.batch", "server distillation batch size",
                [](ExperimentSpec& s) -> std::int64_t& { return s.distill_batch; }));
  add(field_key("distill.lr", "server distillation learning rate",
                [](ExperimentSpec& s) -> float& { return s.distill_lr; }));
  add(field_key("partial.min_ratio", "floor on the sub-model width ratio",
                [](ExperimentSpec& s) -> double& { return s.partial_min_ratio; }));
  add(field_key("adversarial",
                "adversarial client training (false turns jFAT into FedAvg)",
                [](ExperimentSpec& s) -> bool& { return s.adversarial; }));
  return keys;
}

std::vector<std::string> schema_keys() {
  std::vector<std::string> out;
  for (const auto& def : spec_schema()) out.push_back(def.key);
  return out;
}

}  // namespace

const std::vector<KeyDef>& spec_schema() {
  static const std::vector<KeyDef> schema = [] {
    std::vector<KeyDef> keys = build_schema();
    // A key can be a scalar leaf or an object prefix, never both, and keys
    // sharing a dotted prefix are adjacent, so spec_to_json opens each
    // nested object exactly once (guards schema authoring, once).
    std::set<std::string> leaves, opened;
    for (const auto& def : keys) leaves.insert(def.key);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::string& key = keys[i].key;
      for (std::size_t dot = key.find('.'); dot != std::string::npos;
           dot = key.find('.', dot + 1)) {
        const std::string prefix = key.substr(0, dot);
        if (leaves.count(prefix) != 0)
          throw SpecError("schema key '" + prefix +
                          "' collides: it is also an object prefix of '" +
                          key + "'");
        const bool continues =
            i > 0 && keys[i - 1].key.compare(0, dot + 1, key, 0, dot + 1) == 0;
        if (!continues && !opened.insert(prefix).second)
          throw SpecError("schema key '" + key + "' reopens object '" +
                          prefix + "': keys sharing a prefix must be adjacent");
      }
    }
    return keys;
  }();
  return schema;
}

const KeyDef& find_key(const std::string& key) {
  for (const auto& def : spec_schema())
    if (def.key == key) return def;
  throw SpecError(unknown_name_message("spec key", key, schema_keys()));
}

void set_key(ExperimentSpec& spec, const std::string& key,
             const std::string& value) {
  find_key(key).set(spec, value);
}

std::string get_key(const ExperimentSpec& spec, const std::string& key) {
  return find_key(key).get(spec);
}

void apply_override(ExperimentSpec& spec, const std::string& key_eq_value) {
  const std::size_t eq = key_eq_value.find('=');
  if (eq == std::string::npos || eq == 0)
    throw SpecError("expected key=value, got '" + key_eq_value + "'");
  set_key(spec, key_eq_value.substr(0, eq), key_eq_value.substr(eq + 1));
}

std::string spec_to_json(const ExperimentSpec& spec) {
  JsonWriter w(JsonWriter::kExpandAll);
  w.begin_object();
  // `open` is the dotted prefix ("fl.mem.") of the innermost open object.
  // spec_schema() groups keys by prefix, so one pass closes and opens
  // objects as the prefix changes.
  std::string open;
  for (const auto& def : spec_schema()) {
    const std::string_view key = def.key;
    while (key.substr(0, open.size()) != open) {
      w.end_object();
      open.pop_back();
      open.resize(open.rfind('.') + 1);  // npos + 1 == 0: the top level
    }
    for (std::size_t dot; (dot = key.find('.', open.size())) != key.npos;) {
      w.key(key.substr(open.size(), dot - open.size())).begin_object();
      open = key.substr(0, dot + 1);
    }
    w.key(key.substr(open.size()));
    if (def.kind == KeyKind::kString)
      w.string(def.get(spec));
    else
      w.literal(def.get(spec));
  }
  for (const char c : open)
    if (c == '.') w.end_object();
  w.end_object();
  return w.take() + "\n";
}

void apply_json(ExperimentSpec& spec, const std::string& text) {
  for (const auto& [key, value] : parse_json_object(text))
    set_key(spec, key, value);
}

ExperimentSpec spec_from_json(const std::string& text) {
  ExperimentSpec spec;
  apply_json(spec, text);
  return spec;
}

bool specs_equal(const ExperimentSpec& a, const ExperimentSpec& b) {
  for (const auto& def : spec_schema())
    if (def.get(a) != def.get(b)) return false;
  return true;
}

}  // namespace fp::exp
