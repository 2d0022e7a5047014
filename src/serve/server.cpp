#include "serve/server.hpp"

#include <csignal>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <utility>

#include "exp/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/wire_json.hpp"

namespace fp::serve {

namespace {

/// Poll interval for accept/read loops: the latency bound on observing the
/// stop flag from an otherwise-idle thread.
constexpr double kPollS = 0.25;

}  // namespace

ServeConfig serve_config_of(const exp::ExperimentSpec& spec) {
  ServeConfig cfg;
  cfg.host = spec.serve_host;
  cfg.port = static_cast<int>(spec.serve_port);
  cfg.max_batch = spec.serve_max_batch;
  cfg.max_delay_ms = spec.serve_max_delay_ms;
  cfg.queue_cap = spec.serve_queue_cap;
  cfg.max_conns = spec.serve_max_conns;
  return cfg;
}

InferenceServer::InferenceServer(ServedModel model, ServeConfig cfg)
    : model_(std::move(model)),
      cfg_(cfg),
      batcher_(BatchConfig{cfg.max_batch, cfg.max_delay_ms, cfg.queue_cap},
               [this](const Tensor& x) {
                 return reference_forward(*model_.model, x, model_.compute);
               }) {}

InferenceServer::~InferenceServer() { stop(); }

void InferenceServer::start() {
  if (started_) return;
  listener_ = std::make_unique<net::TcpListener>(cfg_.host, cfg_.port);
  batcher_.start();
  stop_.store(false, std::memory_order_relaxed);
  acceptor_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void InferenceServer::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  acceptor_.join();
  listener_.reset();
  {
    std::lock_guard<std::mutex> lk(handlers_mu_);
    for (std::thread& t : handlers_) t.join();
    handlers_.clear();
  }
  // Last: in-flight predicts have all fanned back by now, so this only
  // drains an empty queue and joins the batcher thread.
  batcher_.stop();
  started_ = false;
}

int InferenceServer::port() const {
  return listener_ ? listener_->port() : cfg_.port;
}

void InferenceServer::accept_loop() {
  obs::set_thread_name("serve-accept");
  while (!stop_.load(std::memory_order_relaxed)) {
    net::TcpConn conn;
    try {
      conn = listener_->accept(kPollS);
    } catch (const net::NetError&) {
      continue;  // timeout (or transient accept failure): re-check stop flag
    }
    obs::counter("serve.conns").add(1);
    std::lock_guard<std::mutex> lk(handlers_mu_);
    handlers_.emplace_back(
        [this, c = std::move(conn)]() mutable { handle_conn(std::move(c)); });
  }
}

void InferenceServer::handle_conn(net::TcpConn conn) {
  obs::set_thread_name("serve-conn");
  if (active_conns_.fetch_add(1, std::memory_order_relaxed) >= cfg_.max_conns) {
    // Over capacity: refuse before reading anything.
    try {
      net::HttpConn http(std::move(conn));
      http.write_response(503, "text/plain", "too many connections\n",
                          /*keep_alive=*/false);
    } catch (const net::NetError&) {
    }
    active_conns_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  try {
    net::HttpConn http(std::move(conn));
    net::HttpRequest req;
    while (!stop_.load(std::memory_order_relaxed)) {
      const net::HttpConn::Read r = http.read_request(&req, kPollS);
      if (r == net::HttpConn::Read::kTimeout) continue;
      if (r == net::HttpConn::Read::kClosed) break;
      const Reply reply = route(req);
      const bool keep =
          req.keep_alive() && !stop_.load(std::memory_order_relaxed);
      http.write_response(reply.status, reply.content_type, reply.body, keep,
                          reply.extra_headers);
      if (!keep) break;
    }
  } catch (const net::HttpError&) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    // Framing violation: the 400 is best-effort, the close is the point.
  } catch (const net::NetError&) {
    // Peer reset mid-message; nothing to answer.
  }
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

InferenceServer::Reply InferenceServer::route(const net::HttpRequest& req) {
  FP_TRACE_SCOPE("serve.request", "serve");
  if (req.method == "POST" && req.target == "/v1/predict") return predict(req);
  if (req.method == "GET" && req.target == "/healthz")
    return Reply{200, "text/plain", "ok\n", {}};
  if (req.method == "GET" && req.target == "/metricsz")
    return Reply{200, "application/json", metrics_json(), {}};
  if (req.target == "/healthz" || req.target == "/metricsz" ||
      req.target == "/v1/predict")
    return Reply{405, "text/plain", "method not allowed\n", {}};
  return Reply{404, "text/plain", "not found\n", {}};
}

InferenceServer::Reply InferenceServer::predict(const net::HttpRequest& req) {
  const double t0 = obs::now_s();
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs::counter("serve.requests").add(1);
  Tensor x;
  try {
    x = parse_predict_request(req.body, model_.channels(), model_.height(),
                              model_.width());
  } catch (const BadRequest& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.errors").add(1);
    return Reply{400, "text/plain", std::string(e.what()) + "\n", {}};
  }
  Tensor logits;
  std::int64_t batch = 0;
  const MicroBatcher::Status st = batcher_.predict(x, &logits, &batch);
  if (st == MicroBatcher::Status::kOverloaded) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return Reply{503, "text/plain", "overloaded: queue full\n", {}};
  }
  if (st == MicroBatcher::Status::kFailed) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return Reply{500, "text/plain", "inference failed\n", {}};
  }
  Reply reply{200, "application/json", render_predict_response(logits), {}};
  reply.extra_headers.emplace_back("X-FP-Batch", std::to_string(batch));
  latency_.record(obs::now_s() - t0);
  return reply;
}

std::string InferenceServer::metrics_json() const {
  const BatchStats& bs = batcher_.batch_stats();
  const std::int64_t n = latency_.count();
  exp::JsonWriter w;
  w.begin_object().key("serve").begin_object();
  w.key("requests").integer(requests_.load(std::memory_order_relaxed));
  w.key("predicted_samples").integer(bs.samples());
  w.key("batches").integer(bs.batches());
  w.key("errors").integer(errors_.load(std::memory_order_relaxed));
  w.key("rejected").integer(batcher_.rejected());
  w.key("active_conns").integer(active_conns_.load(std::memory_order_relaxed));
  w.key("latency_ms").begin_object();
  w.key("p50").number(latency_.quantile(0.50) * 1e3);
  w.key("p95").number(latency_.quantile(0.95) * 1e3);
  w.key("p99").number(latency_.quantile(0.99) * 1e3);
  w.key("mean").number(
      n > 0 ? latency_.total_s() * 1e3 / static_cast<double>(n) : 0.0);
  w.end_object();
  w.key("batch_size").begin_object();
  w.key("mean").number(bs.mean()).key("max").integer(bs.max());
  w.end_object().end_object().end_object();
  return w.take();
}

namespace {
volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int) { g_stop_signal = 1; }
}  // namespace

int serve_until_signal(InferenceServer& server) {
  g_stop_signal = 0;
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  server.start();
  const auto& m = server.model();
  std::printf("fp_serve: %s (%lldx%lldx%lld -> %lld classes, %s%s)\n",
              m.spec.model.c_str(), static_cast<long long>(m.channels()),
              static_cast<long long>(m.height()),
              static_cast<long long>(m.width()),
              static_cast<long long>(m.classes()),
              m.compute.precision == compute::Precision::kInt8 ? "int8"
                                                               : "fp32",
              m.compute.winograd ? "+winograd" : "");
  // The poll line scripts wait for; flushed before the first accept returns.
  std::printf("listening on %s:%d\n", server.host().c_str(), server.port());
  std::fflush(stdout);
  struct timespec tick = {0, 100 * 1000 * 1000};  // 100ms
  while (g_stop_signal == 0) nanosleep(&tick, nullptr);
  server.stop();
  server.print_summary(std::cout);
  return 0;
}

void InferenceServer::print_summary(std::ostream& os) const {
  const BatchStats& bs = batcher_.batch_stats();
  char line[256];
  std::snprintf(line, sizeof(line),
                "[serve] requests=%lld samples=%lld batches=%lld "
                "mean_batch=%.2f p50=%.3fms p95=%.3fms p99=%.3fms "
                "errors=%lld rejected=%lld",
                static_cast<long long>(requests()),
                static_cast<long long>(bs.samples()),
                static_cast<long long>(bs.batches()), bs.mean(),
                latency_.quantile(0.50) * 1e3, latency_.quantile(0.95) * 1e3,
                latency_.quantile(0.99) * 1e3,
                static_cast<long long>(errors_.load(std::memory_order_relaxed)),
                static_cast<long long>(batcher_.rejected()));
  os << line << "\n";
}

}  // namespace fp::serve
