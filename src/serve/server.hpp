// The batched HTTP inference server (DESIGN.md §12).
//
// Topology: one acceptor thread parks connections onto thread-per-connection
// handlers, at most serve.max_conns of them: the acceptor joins finished
// handlers as it goes and answers connections over the cap with a 503.
// Handlers parse JSON predict requests and block in the micro-batcher,
// whose single batcher thread runs the only model forwards
// (BuiltModel is not thread-safe — funneling every forward through one
// thread is the synchronization story, and the batched kernels still
// parallelize internally over the shared worker pool).
//
// Endpoints:
//   POST /v1/predict  — wire_json request/response; X-FP-Batch response
//                       header reports the batch the forward rode on
//   GET  /healthz     — "ok\n" once the model is loaded and serving
//   GET  /metricsz    — JSON counters + latency quantiles + batch stats
//
// Shutdown order matters: stop accepting, let handlers observe the stop flag
// (read_request polls with short timeouts), join them, THEN stop the batcher
// so every in-flight predict completes rather than erroring.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "serve/batcher.hpp"
#include "serve/model_host.hpp"
#include "serve/stats.hpp"

namespace fp::serve {

struct ServeConfig {
  std::string host = "127.0.0.1";
  int port = 8080;               ///< 0 = ephemeral (tests)
  std::int64_t max_batch = 32;
  double max_delay_ms = 2.0;
  std::int64_t queue_cap = 256;
  std::int64_t max_conns = 64;
};

/// Maps a spec's serve.* keys onto a ServeConfig.
ServeConfig serve_config_of(const exp::ExperimentSpec& spec);

class InferenceServer {
 public:
  InferenceServer(ServedModel model, ServeConfig cfg);
  ~InferenceServer();
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Binds the listener and starts the batcher + acceptor. Returns once the
  /// server is reachable, so port() is valid immediately after.
  void start();
  /// Drains in-flight work and joins every thread. Idempotent.
  void stop();

  int port() const;
  const std::string& host() const { return cfg_.host; }
  const ServedModel& model() const { return model_; }

  /// The /metricsz payload.
  std::string metrics_json() const;
  /// The end-of-run `[serve]` summary line.
  void print_summary(std::ostream& os) const;

  std::int64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  const LatencyHist& latency() const { return latency_; }
  const BatchStats& batch_stats() const { return batcher_.batch_stats(); }

 private:
  struct Reply {
    int status = 200;
    std::string content_type = "text/plain";
    std::string body;
    std::vector<std::pair<std::string, std::string>> extra_headers;
  };

  void accept_loop();
  void handle_conn(net::TcpConn conn);
  Reply route(const net::HttpRequest& req);
  Reply predict(const net::HttpRequest& req);

  ServedModel model_;
  ServeConfig cfg_;
  MicroBatcher batcher_;

  std::unique_ptr<net::TcpListener> listener_;
  std::thread acceptor_;
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};  ///< set as the thread's last act
  };
  std::mutex handlers_mu_;
  std::list<Handler> handlers_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::atomic<std::int64_t> active_conns_{0};
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> errors_{0};
  LatencyHist latency_;
};

/// Foreground serving loop shared by `fp_serve` and `fp_run --api`: starts
/// the server, prints the "listening on host:port" line (flushed, so
/// scripts can poll), blocks until SIGINT/SIGTERM, then stops cleanly and
/// prints the [serve] summary. Returns a process exit code.
int serve_until_signal(InferenceServer& server);

}  // namespace fp::serve
