// Serving plane tests (DESIGN.md §12): JSON wire format, the micro-batching
// queue, and the HTTP server end to end over real loopback sockets.
//
// The load-bearing assertion is the exactness contract: responses served
// through coalesced batches are byte-identical to what the offline
// single-sample reference forward renders — for fp32 AND for the
// int8/Winograd inference path — under genuinely concurrent clients. This
// file runs under TSan in CI, so it doubles as the data-race check for the
// batcher/handler/acceptor topology.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/json.hpp"
#include "exp/registries.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "models/built_model.hpp"
#include "net/http.hpp"
#include "net/socket.hpp"
#include "serve/batcher.hpp"
#include "serve/model_host.hpp"
#include "serve/server.hpp"
#include "serve/wire_json.hpp"
#include "tensor/rng.hpp"

namespace fp {
namespace {

// ---- wire format ------------------------------------------------------------

TEST(WireJson, RequestRoundTripIsBitExact) {
  Rng rng(11);
  const Tensor x = Tensor::randn({3, 2, 4, 4}, rng);
  const Tensor back =
      serve::parse_predict_request(serve::render_predict_request(x), 2, 4, 4);
  ASSERT_EQ(back.numel(), x.numel());
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(back[i], x[i]);
}

TEST(WireJson, FastPathMatchesRelaxedParser) {
  Rng rng(12);
  const Tensor x = Tensor::randn({2, 1, 2, 2}, rng);
  const std::string tight = serve::render_predict_request(x);
  // Whitespace rides the fast path and an unknown nested object (with
  // brackets inside a string) exercises its skipper. Same tensor either way.
  std::string spaced;
  for (const char c : tight) {
    spaced += c;
    if (c == ',') spaced += "\n  ";
  }
  spaced.insert(1, "\"client\": {\"id\": \"a[b]c\"}, ");
  const Tensor a = serve::parse_predict_request(tight, 1, 2, 2);
  const Tensor b = serve::parse_predict_request(spaced, 1, 2, 2);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);

  const Tensor single = serve::parse_predict_request(
      "{\"input\": [1.5, -2, 3e-2, 4]}", 1, 2, 2);
  EXPECT_EQ(single.dim(0), 1);
  EXPECT_EQ(single[0], 1.5f);
  EXPECT_EQ(single[2], 0.03f);
}

TEST(WireJson, RejectsBadBodies) {
  EXPECT_THROW(serve::parse_predict_request("{}", 1, 2, 2),
               serve::BadRequest);
  EXPECT_THROW(serve::parse_predict_request("{\"inputs\": []}", 1, 2, 2),
               serve::BadRequest);
  EXPECT_THROW(serve::parse_predict_request("not json", 1, 2, 2),
               serve::BadRequest);
  // Wrong element count names the sample and both numbers.
  try {
    serve::parse_predict_request("{\"input\": [1, 2, 3]}", 1, 2, 2);
    FAIL() << "expected BadRequest";
  } catch (const serve::BadRequest& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sample 0 has 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected 4"), std::string::npos) << msg;
  }
  // Non-numeric values fall back to the relaxed parser's diagnostic.
  EXPECT_THROW(
      serve::parse_predict_request("{\"inputs\": [[1, \"x\"]]}", 1, 2, 2),
      serve::BadRequest);
}

TEST(WireJson, PinnedPredictBodies) {
  // The served-vs-offline identity and the load generator's `"label":` match
  // depend on these exact bytes.
  Tensor x({1, 3});
  x[0] = 0.1f;
  x[1] = -2.0f;
  x[2] = 3e-8f;
  EXPECT_EQ(serve::render_predict_response(x),
            "{\"predictions\":[{\"label\":0,\"logits\":[0.1,-2,3e-08]}]}");
  EXPECT_EQ(serve::render_predict_request(x), "{\"inputs\":[[0.1,-2,3e-08]]}");
}

TEST(WireJson, NonFiniteLogitsAreNull) {
  Tensor logits({1, 3});
  logits[0] = 0.5f;
  logits[1] = std::numeric_limits<float>::quiet_NaN();
  logits[2] = std::numeric_limits<float>::infinity();
  const std::string body = serve::render_predict_response(logits);
  EXPECT_EQ(body,
            "{\"predictions\":[{\"label\":2,\"logits\":[0.5,null,null]}]}");
  EXPECT_NO_THROW(exp::parse_json_relaxed(body));
}

// ---- micro-batcher ----------------------------------------------------------

TEST(MicroBatcher, CoalescesConcurrentRequests) {
  serve::BatchConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_ms = 20.0;
  serve::MicroBatcher batcher(cfg, [](const Tensor& x) {
    // Identity-ish forward slow enough for the closed loop to pile up.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Tensor out({x.dim(0), 1});
    for (std::int64_t i = 0; i < x.dim(0); ++i) out.data()[i] = x[i * 4];
    return out;
  });
  batcher.start();

  constexpr int kThreads = 8, kPerThread = 8;
  std::atomic<std::int64_t> max_ride{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const Tensor x = Tensor::randn({1, 1, 2, 2}, rng);
        Tensor logits;
        std::int64_t ride = 0;
        ASSERT_EQ(batcher.predict(x, &logits, &ride),
                  serve::MicroBatcher::Status::kOk);
        ASSERT_EQ(logits.dim(0), 1);
        EXPECT_EQ(logits[0], x[0]);  // rows fanned back to the right caller
        EXPECT_GE(ride, 1);
        std::int64_t seen = max_ride.load();
        while (ride > seen && !max_ride.compare_exchange_weak(seen, ride)) {
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  batcher.stop();

  EXPECT_EQ(batcher.batch_stats().samples(), kThreads * kPerThread);
  // 8 closed-loop clients against a 2ms forward MUST coalesce: if every
  // sample rode alone there were 64 batches; any coalescing gives fewer.
  EXPECT_LT(batcher.batch_stats().batches(), kThreads * kPerThread);
  EXPECT_GE(max_ride.load(), 2);
  EXPECT_LE(batcher.batch_stats().max(), cfg.max_batch);
}

TEST(MicroBatcher, RejectsAboveQueueCapAndAfterStop) {
  serve::BatchConfig cfg;
  cfg.max_batch = 1;
  cfg.max_delay_ms = 0.0;
  cfg.queue_cap = 1;
  std::atomic<bool> in_forward{false};
  std::atomic<bool> release{false};
  serve::MicroBatcher batcher(cfg, [&](const Tensor& x) {
    in_forward.store(true);
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
    return Tensor({x.dim(0), 1});
  });

  Rng rng(1);
  const Tensor x = Tensor::randn({1, 1, 2, 2}, rng);
  // Not started yet: refuse rather than hang.
  Tensor logits;
  EXPECT_EQ(batcher.predict(x, &logits),
            serve::MicroBatcher::Status::kOverloaded);

  batcher.start();
  std::thread first([&] {
    Tensor out;
    EXPECT_EQ(batcher.predict(x, &out), serve::MicroBatcher::Status::kOk);
  });
  while (!in_forward.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The batcher is busy; one job fits the queue, the next is shed.
  std::thread second([&] {
    Tensor out;
    EXPECT_EQ(batcher.predict(x, &out), serve::MicroBatcher::Status::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(batcher.predict(x, &logits),
            serve::MicroBatcher::Status::kOverloaded);
  EXPECT_GE(batcher.rejected(), 2);
  release.store(true);
  first.join();
  second.join();
  batcher.stop();
  EXPECT_EQ(batcher.predict(x, &logits),
            serve::MicroBatcher::Status::kOverloaded);
}

TEST(MicroBatcher, ReportsForwardFailure) {
  serve::BatchConfig cfg;
  cfg.max_delay_ms = 0.0;
  serve::MicroBatcher batcher(cfg, [](const Tensor&) -> Tensor {
    throw std::runtime_error("boom");
  });
  batcher.start();
  Rng rng(2);
  Tensor logits;
  EXPECT_EQ(batcher.predict(Tensor::randn({1, 1, 2, 2}, rng), &logits),
            serve::MicroBatcher::Status::kFailed);
  batcher.stop();
}

// ---- HTTP server end to end -------------------------------------------------

/// A registry model with deterministic weights (no training needed) plus the
/// resolved spec that rebuilds it — the same pair --save-model exports.
serve::ServedModel test_served_model(const std::string& precision,
                                     bool winograd) {
  exp::ExperimentSpec spec;
  spec.model_width = 4;
  exp::set_key(spec, "compute.precision", precision);
  exp::set_key(spec, "compute.winograd", winograd ? "1" : "0");
  spec.serve_port = 0;  // ephemeral: tests must not collide on a fixed port
  spec.serve_max_batch = 8;
  spec = exp::resolve_full(std::move(spec));
  const exp::ModelParams mp{spec.model_image, spec.model_classes,
                            spec.model_width};
  const sys::ModelSpec ms = exp::model_registry().resolve(spec.model)(mp);
  Rng rng(1234);
  models::BuiltModel source(ms, rng);
  return serve::make_served_model(spec, source.save_all());
}

net::HttpConn connect_to(const serve::InferenceServer& server) {
  return net::HttpConn(
      net::TcpConn::connect_retry(server.host(), server.port(), 5.0));
}

net::HttpResponse request(net::HttpConn& http, const std::string& method,
                          const std::string& target,
                          const std::string& body = "") {
  http.send_request(method, target, body);
  net::HttpResponse resp;
  EXPECT_EQ(http.read_response(&resp, 10.0), net::HttpConn::Read::kRequest);
  return resp;
}

void expect_served_matches_reference(const std::string& precision,
                                     bool winograd) {
  serve::ServedModel served = test_served_model(precision, winograd);
  const auto c = served.channels(), h = served.height(), w = served.width();
  Rng rng(55);
  const Tensor samples = Tensor::randn({4, c, h, w}, rng);

  // Offline references BEFORE the server owns the model: per-sample bodies
  // and the batched 4-sample body, rendered exactly as the server renders.
  std::vector<std::string> ref(4);
  for (std::int64_t i = 0; i < 4; ++i)
    ref[static_cast<std::size_t>(i)] =
        serve::render_predict_response(serve::reference_forward(
            *served.model, samples.slice_rows(i, 1), served.compute));
  const std::string ref_all = serve::render_predict_response(
      serve::reference_forward(*served.model, samples, served.compute));

  const serve::ServeConfig cfg = serve::serve_config_of(served.spec);
  serve::InferenceServer server(std::move(served), cfg);
  server.start();
  net::HttpConn http = connect_to(server);
  for (std::int64_t i = 0; i < 4; ++i) {
    const net::HttpResponse resp = request(
        http, "POST", "/v1/predict",
        serve::render_predict_request(samples.slice_rows(i, 1)));
    ASSERT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, ref[static_cast<std::size_t>(i)]);
    ASSERT_NE(resp.header("X-FP-Batch"), nullptr);
  }
  const net::HttpResponse all = request(
      http, "POST", "/v1/predict", serve::render_predict_request(samples));
  ASSERT_EQ(all.status, 200);
  EXPECT_EQ(all.body, ref_all);
  server.stop();
}

TEST(InferenceServer, ServesFp32BitIdenticalToOfflineForward) {
  expect_served_matches_reference("fp32", false);
}

TEST(InferenceServer, ServesInt8WinogradBitIdenticalToOfflineForward) {
  expect_served_matches_reference("int8", true);
}

TEST(InferenceServer, ConcurrentClientsGetExactPerSampleAnswers) {
  serve::ServedModel served = test_served_model("int8", true);
  const auto c = served.channels(), h = served.height(), w = served.width();
  Rng rng(77);
  constexpr std::int64_t kSamples = 6;
  const Tensor samples = Tensor::randn({kSamples, c, h, w}, rng);
  std::vector<std::string> body(kSamples), ref(kSamples);
  for (std::int64_t i = 0; i < kSamples; ++i) {
    body[static_cast<std::size_t>(i)] =
        serve::render_predict_request(samples.slice_rows(i, 1));
    ref[static_cast<std::size_t>(i)] =
        serve::render_predict_response(serve::reference_forward(
            *served.model, samples.slice_rows(i, 1), served.compute));
  }

  const serve::ServeConfig cfg = serve::serve_config_of(served.spec);
  serve::InferenceServer server(std::move(served), cfg);
  server.start();
  constexpr int kClients = 8, kPerClient = 6;
  std::vector<std::thread> clients;
  for (int k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k] {
      net::HttpConn http = connect_to(server);
      for (int i = 0; i < kPerClient; ++i) {
        const auto s = static_cast<std::size_t>((k + i) % kSamples);
        const net::HttpResponse resp =
            request(http, "POST", "/v1/predict", body[s]);
        ASSERT_EQ(resp.status, 200);
        // Coalesced or not, the bytes must equal the offline answer.
        EXPECT_EQ(resp.body, ref[s]);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(server.requests(), kClients * kPerClient);
  server.stop();
}

TEST(InferenceServer, RoutesHealthMetricsAndErrors) {
  serve::ServedModel served = test_served_model("fp32", false);
  Rng rng(9);
  const std::string one_body = serve::render_predict_request(Tensor::randn(
      {1, served.channels(), served.height(), served.width()}, rng));
  const serve::ServeConfig cfg = serve::serve_config_of(served.spec);
  serve::InferenceServer server(std::move(served), cfg);
  server.start();
  net::HttpConn http = connect_to(server);

  EXPECT_EQ(request(http, "GET", "/healthz").body, "ok\n");
  EXPECT_EQ(request(http, "GET", "/nope").status, 404);
  EXPECT_EQ(request(http, "PUT", "/v1/predict", one_body).status, 405);
  const net::HttpResponse bad =
      request(http, "POST", "/v1/predict", "{\"inputs\": \"zap\"}");
  EXPECT_EQ(bad.status, 400);
  EXPECT_EQ(request(http, "POST", "/v1/predict", one_body).status, 200);

  const net::HttpResponse metrics = request(http, "GET", "/metricsz");
  EXPECT_EQ(metrics.status, 200);
  const exp::FlatJson flat = exp::parse_json_relaxed(metrics.body);
  auto value_of = [&](const std::string& key) -> std::string {
    for (const auto& [k, v] : flat)
      if (k == key) return v;
    ADD_FAILURE() << "missing " << key << " in " << metrics.body;
    return "";
  };
  // /healthz, /nope, /v1/predict x3, /metricsz itself is not yet counted.
  EXPECT_EQ(value_of("serve.requests"), "2");  // only /v1/predict POSTs count
  EXPECT_EQ(value_of("serve.predicted_samples"), "1");
  EXPECT_EQ(value_of("serve.errors"), "1");
  value_of("serve.latency_ms.p50");
  value_of("serve.batch_size.mean");
  server.stop();

  // The [serve] summary renders after stop without throwing.
  std::ostringstream os;
  server.print_summary(os);
  EXPECT_NE(os.str().find("[serve]"), std::string::npos);
}

TEST(InferenceServer, FreshMetricsBodyIsPinned) {
  serve::ServedModel served = test_served_model("fp32", false);
  const serve::ServeConfig cfg = serve::serve_config_of(served.spec);
  serve::InferenceServer server(std::move(served), cfg);
  server.start();
  net::HttpConn http = connect_to(server);
  EXPECT_EQ(request(http, "GET", "/metricsz").body,
            "{\"serve\":{\"requests\":0,\"predicted_samples\":0,"
            "\"batches\":0,\"errors\":0,\"rejected\":0,\"active_conns\":1,"
            "\"latency_ms\":{\"p50\":0,\"p95\":0,\"p99\":0,\"mean\":0},"
            "\"batch_size\":{\"mean\":0,\"max\":0}}}");
  server.stop();
}

TEST(ServeConfig, MapsSpecKeys) {
  exp::ExperimentSpec spec;
  exp::set_key(spec, "serve.host", "0.0.0.0");
  exp::set_key(spec, "serve.port", "9090");
  exp::set_key(spec, "serve.max_batch", "16");
  exp::set_key(spec, "serve.max_delay_ms", "0.5");
  exp::set_key(spec, "serve.queue_cap", "99");
  exp::set_key(spec, "serve.max_conns", "7");
  const serve::ServeConfig cfg = serve::serve_config_of(spec);
  EXPECT_EQ(cfg.host, "0.0.0.0");
  EXPECT_EQ(cfg.port, 9090);
  EXPECT_EQ(cfg.max_batch, 16);
  EXPECT_EQ(cfg.max_delay_ms, 0.5);
  EXPECT_EQ(cfg.queue_cap, 99);
  EXPECT_EQ(cfg.max_conns, 7);
}

}  // namespace
}  // namespace fp
