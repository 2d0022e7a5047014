// fp_serve: batched HTTP inference over a trained global model (DESIGN.md
// §12).
//
//   fp_run method=FedProphet --save-model model.fpck
//   fp_serve model.fpck serve.port=8080
//   curl -d '{"input":[...]}' http://127.0.0.1:8080/v1/predict
//
// The checkpoint's .spec.json sidecar rebuilds the exact registry model the
// training run used; key=value overrides tune the serving plane (serve.*)
// or re-route the compute mode (compute.precision=int8 compute.winograd=1 —
// the weights are precision-independent, so an fp32-trained model can serve
// quantized). SIGINT/SIGTERM stop the server cleanly and print the [serve]
// summary line.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "exp/registry.hpp"
#include "exp/spec.hpp"
#include "net/socket.hpp"
#include "serve/model_host.hpp"
#include "serve/server.hpp"
#include "serve/wire_json.hpp"

namespace {

int usage(std::FILE* out) {
  std::fprintf(
      out,
      "fp_serve — batched HTTP inference server over a trained model\n\n"
      "usage: fp_serve <checkpoint> [options] [key=value ...]\n\n"
      "options:\n"
      "  --spec <file.json>    spec sidecar (default: <checkpoint>.spec.json)\n"
      "  --offline <req.json>  no server: print the /v1/predict response for\n"
      "                        that request body and exit (byte-identical to\n"
      "                        what the HTTP path would answer)\n"
      "  --help                this message\n\n"
      "key=value overrides are applied on top of the sidecar spec: serve.*\n"
      "tunes the server (serve.port=0 binds an ephemeral port), compute.*\n"
      "re-routes the inference kernels (compute.precision=int8).\n\n"
      "endpoints:\n"
      "  POST /v1/predict  {\"input\":[...]} or {\"inputs\":[[...],...]}\n"
      "  GET  /healthz     liveness (\"ok\")\n"
      "  GET  /metricsz    request/batch counters, latency quantiles\n");
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string ckpt_path, spec_path, offline_path;
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(stdout);
    if (arg == "--spec" || arg == "--offline") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fp_serve: %s needs a path argument\n\n",
                     arg.c_str());
        return usage(stderr);
      }
      (arg == "--spec" ? spec_path : offline_path) = argv[++i];
      continue;
    }
    if (arg.find('=') != std::string::npos && arg[0] != '-') {
      overrides.push_back(arg);
      continue;
    }
    if (arg[0] == '-') {
      std::fprintf(stderr, "fp_serve: unknown option '%s'\n\n", arg.c_str());
      return usage(stderr);
    }
    if (!ckpt_path.empty()) {
      std::fprintf(stderr, "fp_serve: more than one checkpoint given\n\n");
      return usage(stderr);
    }
    ckpt_path = arg;
  }
  if (ckpt_path.empty()) {
    std::fprintf(stderr, "fp_serve: missing checkpoint path\n\n");
    return usage(stderr);
  }

  try {
    fp::serve::ServedModel served =
        fp::serve::load_served_model(ckpt_path, spec_path);
    for (const auto& kv : overrides) {
      fp::exp::apply_override(served.spec, kv);
    }
    // Overrides may have re-routed the compute mode.
    served.compute = served.spec.fl.compute;

    if (!offline_path.empty()) {
      std::string body;
      if (!fp::exp::read_text_file(offline_path, &body)) {
        std::fprintf(stderr, "fp_serve: cannot read request '%s'\n",
                     offline_path.c_str());
        return 2;
      }
      const fp::Tensor x = fp::serve::parse_predict_request(
          body, served.channels(), served.height(), served.width());
      const fp::Tensor logits =
          fp::serve::reference_forward(*served.model, x, served.compute);
      std::printf("%s\n", fp::serve::render_predict_response(logits).c_str());
      return 0;
    }

    const fp::serve::ServeConfig cfg = fp::serve::serve_config_of(served.spec);
    fp::serve::InferenceServer server(std::move(served), cfg);
    return fp::serve::serve_until_signal(server);
  } catch (const fp::serve::BadRequest& e) {
    std::fprintf(stderr, "fp_serve: bad request: %s\n", e.what());
    return 2;
  } catch (const fp::exp::SpecError& e) {
    std::fprintf(stderr, "fp_serve: %s\n", e.what());
    return 2;
  } catch (const fp::net::NetError& e) {
    std::fprintf(stderr, "fp_serve: network error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fp_serve: %s\n", e.what());
    return 1;
  }
}
