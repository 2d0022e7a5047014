// fp_run: the declarative experiment driver (DESIGN.md §7).
//
// One binary drives any method x scheduler x codec x budget scenario:
//
//   fp_run --config exp.json method=FedProphet comm.codec=int8 \
//          mem.enforce_budget=1 fl.scheduler=async
//
// A spec starts from the bench-scenario defaults, is overridden by the
// optional JSON config file and then by key=value arguments (in order),
// resolved (auto fields filled with their concrete values), and executed end
// to end: train, evaluate clean/PGD/AA-lite, print the history summary.
// FP_BENCH_OUT=<dir> additionally exports the trajectory CSV and the
// fully-resolved spec (<name>.spec.json) — `fp_run --config <that file>`
// reproduces the run exactly.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "net/service.hpp"
#include "obs/log.hpp"
#include "serve/model_host.hpp"
#include "serve/server.hpp"

namespace {

using fp::exp::ExperimentSpec;

int usage(std::FILE* out) {
  std::fprintf(out,
               "fp_run — declarative federated-experiment driver\n\n"
               "usage: fp_run [options] [key=value ...]\n\n"
               "options:\n"
               "  --config <file.json>  apply a spec file (nested or dotted keys)\n"
               "  --dump-spec <path>    write the fully-resolved spec and exit\n"
               "  --print-spec          print the fully-resolved spec before running\n"
               "  --plan                print the plan-backed pool's metadata\n"
               "                        (shard sizes, class skew) without\n"
               "                        synthesizing any tensors, and exit\n"
               "  --list                list registered methods/models/workloads/\n"
               "                        schedulers/codecs and exit\n"
               "  --serve               run as distributed root (net.role=root):\n"
               "                        wait for net.workers workers on\n"
               "                        net.host:net.port, then train over them\n"
               "  --worker <host:port>  run as distributed worker serving that\n"
               "                        root (net.role=worker)\n"
               "  --save-model <path>   after training, export the global model\n"
               "                        checkpoint plus its <path>.spec.json\n"
               "                        sidecar (what fp_serve loads)\n"
               "  --api [host:port]     after training, serve the global model\n"
               "                        over HTTP until SIGINT (POST /v1/predict,\n"
               "                        GET /healthz, GET /metricsz)\n"
               "  --trace <out.json>    collect spans and write a Chrome trace\n"
               "                        (obs.trace=1 obs.trace_path=<out.json>;\n"
               "                        load in chrome://tracing / Perfetto)\n"
               "  --log-level <level>   stderr verbosity: quiet, info (default),\n"
               "                        or debug (monotonic-timestamped lines)\n"
               "  --keys                list every spec key with default and doc\n"
               "  --help                this message\n\n"
               "environment:\n"
               "  FP_BENCH_FAST=1    shrink the default scenario ~4x (CI smoke)\n"
               "  FP_BENCH_OUT=<dir> export trajectory CSV + resolved .spec.json\n"
               "  FP_NUM_THREADS=<n> worker threads (default: hardware)\n\n"
               "examples:\n"
               "  fp_run method=FedProphet\n"
               "  fp_run method=jFAT fl.scheduler=async async.straggler_cutoff_s=0.5\n"
               "  fp_run method=jFAT comm.codec=int8 comm.model_network=1\n"
               "  fp_run method=jFAT mem.measure=1 mem.enforce_budget=1 \\\n"
               "         mem.checkpointing=1 mem.budget_frac=0.5\n"
               "  fp_run --serve method=jFAT net.workers=2   # terminal 1\n"
               "  fp_run --worker 127.0.0.1:7171             # terminals 2, 3\n\n"
               "run fp_run --keys for the full dotted-key table.\n");
  return out == stdout ? 0 : 2;
}

void list_registry_names() {
  auto section = [](const char* title, const std::vector<std::string>& names,
                    auto doc_of) {
    std::printf("%s:\n", title);
    for (const auto& n : names)
      std::printf("  %-14s %s\n", n.c_str(), doc_of(n).c_str());
    std::printf("\n");
  };
  using namespace fp::exp;
  section("methods", method_registry().names(),
          [](const std::string& n) { return method_registry().doc(n); });
  section("models", model_registry().names(),
          [](const std::string& n) { return model_registry().doc(n); });
  section("workloads", workload_registry().names(),
          [](const std::string& n) { return workload_registry().doc(n); });
  section("schedulers", scheduler_registry().names(),
          [](const std::string& n) { return scheduler_registry().doc(n); });
  section("codecs", codec_registry().names(),
          [](const std::string& n) { return codec_registry().doc(n); });
}

void list_keys() {
  const ExperimentSpec defaults;
  std::printf("%-26s %-14s %s\n", "key", "default", "doc");
  for (const auto& def : fp::exp::spec_schema())
    std::printf("%-26s %-14s %s\n", def.key.c_str(),
                def.get(defaults).c_str(), def.doc.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path, dump_path, save_model_path;
  bool print_spec = false;
  bool print_plan = false;
  bool api_mode = false;
  std::vector<std::string> overrides;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(stdout);
    if (arg == "--list") {
      list_registry_names();
      return 0;
    }
    if (arg == "--keys") {
      list_keys();
      return 0;
    }
    if (arg == "--print-spec") {
      print_spec = true;
      continue;
    }
    if (arg == "--plan") {
      print_plan = true;
      continue;
    }
    if (arg == "--serve") {
      overrides.push_back("net.role=root");
      continue;
    }
    if (arg == "--worker") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fp_run: --worker needs a host:port argument\n\n");
        return usage(stderr);
      }
      const std::string endpoint = argv[++i];
      const auto colon = endpoint.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == endpoint.size()) {
        std::fprintf(stderr, "fp_run: --worker wants host:port, got '%s'\n\n",
                     endpoint.c_str());
        return usage(stderr);
      }
      overrides.push_back("net.role=worker");
      overrides.push_back("net.host=" + endpoint.substr(0, colon));
      overrides.push_back("net.port=" + endpoint.substr(colon + 1));
      continue;
    }
    if (arg == "--save-model") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fp_run: --save-model needs a path argument\n\n");
        return usage(stderr);
      }
      save_model_path = argv[++i];
      continue;
    }
    if (arg == "--api") {
      api_mode = true;
      // Optional host:port operand (anything else is left for the arg loop).
      if (i + 1 < argc && argv[i + 1][0] != '-' &&
          std::strchr(argv[i + 1], '=') == nullptr) {
        const std::string endpoint = argv[++i];
        const auto colon = endpoint.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == endpoint.size()) {
          std::fprintf(stderr, "fp_run: --api wants host:port, got '%s'\n\n",
                       endpoint.c_str());
          return usage(stderr);
        }
        overrides.push_back("serve.host=" + endpoint.substr(0, colon));
        overrides.push_back("serve.port=" + endpoint.substr(colon + 1));
      }
      continue;
    }
    if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fp_run: --trace needs an output path\n\n");
        return usage(stderr);
      }
      overrides.push_back("obs.trace=1");
      overrides.push_back(std::string("obs.trace_path=") + argv[++i]);
      continue;
    }
    if (arg == "--log-level") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fp_run: --log-level needs a level\n\n");
        return usage(stderr);
      }
      fp::obs::LogLevel level;
      if (!fp::obs::parse_log_level(argv[++i], &level)) {
        std::fprintf(stderr,
                     "fp_run: unknown log level '%s' (quiet, info, debug)\n\n",
                     argv[i]);
        return usage(stderr);
      }
      fp::obs::set_log_level(level);
      continue;
    }
    if (arg == "--config" || arg == "--dump-spec") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fp_run: %s needs a path argument\n\n", arg.c_str());
        return usage(stderr);
      }
      (arg == "--config" ? config_path : dump_path) = argv[++i];
      continue;
    }
    if (arg.find('=') != std::string::npos && arg[0] != '-') {
      overrides.push_back(arg);
      continue;
    }
    std::fprintf(stderr, "fp_run: unknown argument '%s'\n\n", arg.c_str());
    return usage(stderr);
  }

  try {
    ExperimentSpec spec;
    if (!config_path.empty()) {
      std::string text;
      if (!fp::exp::read_text_file(config_path, &text)) {
        std::fprintf(stderr, "fp_run: cannot read config '%s'\n",
                     config_path.c_str());
        return 2;
      }
      fp::exp::apply_json(spec, text);
    }
    for (const auto& kv : overrides) fp::exp::apply_override(spec, kv);

    if (!dump_path.empty()) {
      // Spec inspection only: resolve (including the model-family-derived
      // autos) without synthesizing the dataset or environment.
      const fp::exp::ExperimentSpec resolved =
          fp::exp::resolve_full(std::move(spec));
      if (!fp::exp::write_text_file(dump_path,
                                    fp::exp::spec_to_json(resolved))) {
        std::fprintf(stderr, "fp_run: cannot write '%s'\n", dump_path.c_str());
        return 2;
      }
      std::printf("wrote resolved spec to %s\n", dump_path.c_str());
      return 0;
    }
    if (print_plan) {
      // Metadata-only: the pool plan is derivable without synthesizing a
      // single shard, which is the point of plan-backed pools (DESIGN.md §9).
      const auto src = fp::exp::plan_source(spec);
      if (!src) {
        std::fprintf(stderr,
                     "fp_run: --plan needs a plan-backed pool "
                     "(env.lazy_clients=1 or env.lazy_materialize=1)\n");
        return 2;
      }
      const auto& plan = src->plan();
      std::printf("plan-backed pool: %lld clients x %lld samples "
                  "(%lld classes, seed %llu)\n",
                  static_cast<long long>(src->num_clients()),
                  static_cast<long long>(src->shard_size()),
                  static_cast<long long>(plan.synth.num_classes),
                  static_cast<unsigned long long>(plan.synth.seed));
      std::printf("non-IID skew: %.0f%% of each shard concentrated on %.0f%% "
                  "of classes\n",
                  100.0 * plan.major_data_fraction,
                  100.0 * plan.major_class_fraction);
      const std::int64_t show =
          std::min<std::int64_t>(src->num_clients(), 8);
      for (std::int64_t k = 0; k < show; ++k) {
        const auto counts = src->shard_class_counts(k);
        std::printf("  client %-8lld classes [", static_cast<long long>(k));
        for (std::size_t c = 0; c < counts.size(); ++c)
          std::printf("%s%lld", c ? " " : "",
                      static_cast<long long>(counts[c]));
        std::printf("]\n");
      }
      if (src->num_clients() > show)
        std::printf("  ... (%lld more clients, all derivable from the plan)\n",
                    static_cast<long long>(src->num_clients() - show));
      return 0;
    }
    const std::string role = fp::exp::get_key(spec, "net.role");
    if ((api_mode || !save_model_path.empty()) && role != "off") {
      std::fprintf(stderr,
                   "fp_run: --save-model/--api need the single-process path "
                   "(net.role=off), not '%s'\n",
                   role.c_str());
      return 2;
    }
    if (role == "worker") {
      // The run is defined by the root's resolved spec; local keys beyond
      // net.host/net.port/net.retry_s only matter until the welcome arrives.
      fp::obs::logf(fp::obs::LogLevel::kInfo,
                    "fp_run: worker connecting to %s:%s",
                    fp::exp::get_key(spec, "net.host").c_str(),
                    fp::exp::get_key(spec, "net.port").c_str());
      fp::net::run_worker(spec);
      fp::obs::logf(fp::obs::LogLevel::kInfo,
                    "fp_run: worker finished (root shut down the run)");
      return 0;
    }
    if (role == "root") {
      fp::obs::logf(fp::obs::LogLevel::kInfo,
                    "fp_run: serving %s as distributed root on %s:%s "
                    "(waiting for %s workers)",
                    fp::exp::get_key(spec, "method").c_str(),
                    fp::exp::get_key(spec, "net.host").c_str(),
                    fp::exp::get_key(spec, "net.port").c_str(),
                    fp::exp::get_key(spec, "net.workers").c_str());
      fp::exp::Setup summary_setup = fp::exp::build_setup(spec);
      if (print_spec)
        std::printf("%s", fp::exp::spec_to_json(summary_setup.spec).c_str());
      const fp::exp::RunResult result = fp::net::serve_root(std::move(spec));
      fp::exp::print_run_summary(summary_setup, result);
      return 0;
    }

    fp::exp::Setup setup = fp::exp::build_setup(std::move(spec));
    if (print_spec) std::printf("%s", fp::exp::spec_to_json(setup.spec).c_str());

    fp::obs::logf(fp::obs::LogLevel::kInfo,
                  "fp_run: %s on %s (%lld clients, %lld rounds)",
                  setup.spec.method.c_str(), setup.spec.workload.c_str(),
                  static_cast<long long>(setup.spec.fl.num_clients),
                  static_cast<long long>(setup.spec.fl.rounds));
    // Construct the method BEFORE training so a method with no single
    // deployable global model (FedRBN's dual BN banks) fails fast instead
    // of after the whole run.
    const fp::exp::MethodFactory& factory =
        fp::exp::method_registry().resolve(setup.spec.method);
    fp::exp::MethodRun run = factory(setup);
    if ((!save_model_path.empty() || api_mode) &&
        !run.algo->single_global_model()) {
      std::fprintf(stderr,
                   "fp_run: method '%s' has no single deployable global model "
                   "(--save-model/--api need one); pick another method\n",
                   setup.spec.method.c_str());
      return 2;
    }
    const fp::exp::RunResult result = fp::exp::run_built(setup, run);
    fp::exp::print_run_summary(setup, result);
    if (!save_model_path.empty()) {
      fp::serve::export_model(save_model_path, setup.spec,
                              run.algo->global_model().save_all());
      std::printf("saved global model to %s (spec sidecar %s)\n",
                  save_model_path.c_str(),
                  fp::serve::sidecar_path(save_model_path).c_str());
    }
    if (api_mode) {
      fp::serve::ServedModel served = fp::serve::make_served_model(
          setup.spec, run.algo->global_model().save_all());
      fp::serve::InferenceServer server(
          std::move(served), fp::serve::serve_config_of(setup.spec));
      return fp::serve::serve_until_signal(server);
    }
    return 0;
  } catch (const fp::exp::SpecError& e) {
    std::fprintf(stderr, "fp_run: %s\n", e.what());
    return 2;
  } catch (const fp::net::NetError& e) {
    std::fprintf(stderr, "fp_run: network error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fp_run: unexpected error: %s\n", e.what());
    return 1;
  }
}
