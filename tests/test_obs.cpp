// The observability plane (src/obs/, DESIGN.md §11).
//
// * Tracing must be purely observational: enabling it cannot move a single
//   training bit, so the pre-refactor golden hashes must hold with spans on.
// * The per-thread chunked buffers must be lossless under concurrent
//   emission (this file runs under TSan in CI).
// * The emitted Chrome-trace JSON must parse with the repo's own relaxed
//   parser and carry the keys chrome://tracing / Perfetto require.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "baselines/whole_model.hpp"
#include "blob_hash.hpp"
#include "comm/wire.hpp"
#include "core/parallel.hpp"
#include "data/synthetic.hpp"
#include "exp/json.hpp"
#include "fedprophet/fedprophet.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace fp {
namespace {

using test::fnv1a;

void set_tracing(bool on, std::int64_t sample_kernels = 16) {
  obs::ObsSettings s;
  s.trace = on;
  s.sample_kernels = sample_kernels;
  obs::configure(s);
}

/// Restores tracing-off even when a test's assertions fail early.
struct TracingGuard {
  ~TracingGuard() { set_tracing(false); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::filesystem::path obs_tmp_dir() {
  const auto dir = std::filesystem::temp_directory_path() / "fp_obs_test";
  std::filesystem::create_directories(dir);
  return dir;
}

// Same tiny scenario + golden constants as tests/test_runtime.cpp: the
// hashes were captured from the pre-refactor round loops and must be
// reproduced bit-for-bit even with span collection enabled.
data::TrainTest tiny_data() {
  data::SyntheticConfig dcfg = data::synth_cifar_config();
  dcfg.train_size = 240;
  dcfg.test_size = 80;
  dcfg.num_classes = 4;
  return data::make_synthetic(dcfg);
}

fed::FlConfig tiny_fl() {
  fed::FlConfig fl;
  fl.num_clients = 6;
  fl.clients_per_round = 3;
  fl.local_iters = 2;
  fl.batch_size = 16;
  fl.pgd_steps = 2;
  fl.rounds = 2;
  fl.lr0 = 0.05f;
  fl.sgd.lr = 0.05f;
  return fl;
}

fed::FedEnv tiny_env(const data::TrainTest& data, const fed::FlConfig& fl) {
  fed::FedEnvConfig ecfg;
  ecfg.fl = fl;
  return fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
}

constexpr std::uint64_t kJfatGoldenHash = 0xb497721331b34652ull;
constexpr std::uint64_t kFpGoldenHash = 0xf562929cf09c1982ull;

TEST(Trace, SpanNestingAndThreadAttribution) {
  TracingGuard guard;
  set_tracing(true);
  {
    FP_TRACE_SCOPE("obs_outer", "test");
    { FP_TRACE_SCOPE_ARG("obs_inner", "test", "value", 7); }
  }
  std::thread child([] {
    obs::set_thread_name("obs-child");
    FP_TRACE_SCOPE("obs_child", "test");
  });
  child.join();

  const auto events = obs::trace_snapshot();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* from_child = nullptr;
  for (const auto& e : events) {
    if (e.name == "obs_outer") outer = &e;
    if (e.name == "obs_inner") inner = &e;
    if (e.name == "obs_child") from_child = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(from_child, nullptr);

  // The inner span nests strictly inside the outer one, on the same thread.
  EXPECT_EQ(inner->tid, outer->tid);
  EXPECT_GE(inner->t0_ns, outer->t0_ns);
  EXPECT_LE(inner->t1_ns, outer->t1_ns);
  EXPECT_EQ(inner->cat, "test");
  EXPECT_EQ(inner->arg_name, "value");
  EXPECT_EQ(inner->arg, 7);
  // The child thread's span lands in its own named lane.
  EXPECT_NE(from_child->tid, outer->tid);
  EXPECT_EQ(from_child->thread_name, "obs-child");
  EXPECT_EQ(outer->pid, 0u);
}

TEST(Trace, EpochIsolatesRuns) {
  TracingGuard guard;
  set_tracing(true);
  { FP_TRACE_SCOPE("obs_stale", "test"); }
  // Re-enabling starts a fresh epoch: the earlier span must not replay.
  set_tracing(true);
  { FP_TRACE_SCOPE("obs_fresh", "test"); }
  bool saw_stale = false, saw_fresh = false;
  for (const auto& e : obs::trace_snapshot()) {
    if (e.name == "obs_stale") saw_stale = true;
    if (e.name == "obs_fresh") saw_fresh = true;
  }
  EXPECT_FALSE(saw_stale);
  EXPECT_TRUE(saw_fresh);
}

TEST(Trace, NewEpochReclaimsTheBuffer) {
  TracingGuard guard;
  // 2 x 150k spans on one thread overrun its 256k-span buffer unless each
  // epoch starts from an empty one.
  constexpr int kPerEpoch = 150000;
  for (int epoch = 0; epoch < 2; ++epoch) {
    set_tracing(true);
    for (int i = 0; i < kPerEpoch; ++i) {
      FP_TRACE_SCOPE("obs_epoch_fill", "test");
    }
  }
  std::int64_t count = 0;
  for (const auto& e : obs::trace_snapshot())
    if (e.name == "obs_epoch_fill") ++count;
  EXPECT_EQ(count, kPerEpoch);
  EXPECT_EQ(obs::dropped_events(), 0);
}

TEST(Trace, DrainShipsEachEpochsEventsOnce) {
  TracingGuard guard;
  const auto drain = [] {
    comm::FrameWriter out;
    obs::serialize_new_events(out);
    return out.take();
  };
  set_tracing(true);
  for (int i = 0; i < 3; ++i) {
    FP_TRACE_SCOPE("obs_drain_old", "test");
  }
  drain();
  // The new epoch frees the drained buffer: the drain must restart at its
  // front, ship the new spans once, and nothing the second time.
  set_tracing(true);
  for (int i = 0; i < 2; ++i) {
    FP_TRACE_SCOPE("obs_drain_new", "test");
  }
  for (int round = 0; round < 2; ++round) {
    const std::vector<std::uint8_t> frame = drain();
    comm::FrameReader in(frame);
    obs::ingest_remote_events(in, 7 + round, "drain");
  }
  std::map<std::string, int> seen;  // "<name>@<pid>"
  for (const auto& e : obs::trace_snapshot())
    if (e.pid >= 7) ++seen[e.name + "@" + std::to_string(e.pid)];
  EXPECT_EQ(seen["obs_drain_new@7"], 2);
  EXPECT_EQ(seen["obs_drain_new@8"], 0);
  EXPECT_EQ(seen["obs_drain_old@7"], 0);
}

TEST(Trace, ThreadsThatNeverTraceMakeNoBuffer) {
  // The lane count a drain frame carries is the number of thread buffers.
  const auto lanes = [] {
    comm::FrameWriter out;
    obs::serialize_new_events(out);
    const std::vector<std::uint8_t> frame = out.take();
    comm::FrameReader in(frame);
    in.u64();
    return in.u32();
  };
  const std::uint32_t before = lanes();
  for (int i = 0; i < 3; ++i)
    std::thread([] { obs::set_thread_name("obs-untraced"); }).join();
  EXPECT_EQ(lanes(), before);
  TracingGuard guard;
  set_tracing(true);
  std::thread([] {
    obs::set_thread_name("obs-traced");
    FP_TRACE_SCOPE("obs_named", "test");
  }).join();
  EXPECT_EQ(lanes(), before + 1);
  bool named = false;
  for (const auto& e : obs::trace_snapshot())
    if (e.name == "obs_named") named = e.thread_name == "obs-traced";
  EXPECT_TRUE(named);
}

TEST(Trace, ConcurrentEmissionIsLossless) {
  TracingGuard guard;
  set_tracing(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;  // ~12 chunks per thread, far below cap
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        FP_TRACE_SCOPE_ARG("obs_stress", "test", "i", i);
      }
    });
  for (auto& t : threads) t.join();

  std::int64_t count = 0;
  for (const auto& e : obs::trace_snapshot())
    if (e.name == "obs_stress") ++count;
  EXPECT_EQ(count, static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(obs::dropped_events(), 0);
}

TEST(Trace, KernelSpansAreSampledOneInN) {
  TracingGuard guard;
  set_tracing(true, /*sample_kernels=*/8);
  // A fresh thread starts with a zeroed per-thread sample counter, making
  // the 1-in-8 pattern deterministic: calls 0, 8, ..., 56 are traced.
  constexpr int kCalls = 64;
  std::thread worker([] {
    const std::vector<float> a(4 * 4, 1.0f), b(4 * 4, 2.0f);
    std::vector<float> c(4 * 4, 0.0f);
    for (int i = 0; i < kCalls; ++i)
      gemm(false, false, 4, 4, 4, 1.0f, a.data(), b.data(), 0.0f, c.data());
  });
  worker.join();

  std::int64_t gemm_spans = 0;
  for (const auto& e : obs::trace_snapshot())
    if (e.name == "gemm" && e.cat == "kernel") ++gemm_spans;
  EXPECT_EQ(gemm_spans, kCalls / 8);
}

TEST(Trace, WrittenJsonParsesWithRequiredKeys) {
  TracingGuard guard;
  set_tracing(true);
  obs::set_thread_name("obs-json-main");
  { FP_TRACE_SCOPE_ARG("obs_json_span", "test", "items", 3); }

  const std::string path = (obs_tmp_dir() / "trace.json").string();
  ASSERT_TRUE(obs::write_trace_json(path));
  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());

  // The repo's own relaxed parser must accept the file (arrays flattened as
  // traceEvents.<i>.<field>).
  const exp::FlatJson flat = exp::parse_json_relaxed(text);
  bool has_display_unit = false;
  bool has_process_meta = false;
  bool has_thread_meta = false;
  std::string span_prefix;
  for (const auto& [key, value] : flat) {
    if (key == "displayTimeUnit") has_display_unit = true;
    if (value == "process_name") has_process_meta = true;
    if (value == "thread_name") has_thread_meta = true;
    if (value == "obs_json_span")
      span_prefix = key.substr(0, key.size() - std::string("name").size());
  }
  EXPECT_TRUE(has_display_unit);
  EXPECT_TRUE(has_process_meta);
  EXPECT_TRUE(has_thread_meta);
  ASSERT_FALSE(span_prefix.empty()) << "span missing from " << path;

  auto field = [&](const char* name) -> std::string {
    for (const auto& [key, value] : flat)
      if (key == span_prefix + name) return value;
    return "";
  };
  EXPECT_EQ(field("ph"), "X");
  EXPECT_EQ(field("cat"), "test");
  EXPECT_EQ(field("pid"), "0");
  EXPECT_FALSE(field("ts").empty());
  EXPECT_FALSE(field("dur").empty());
  EXPECT_FALSE(field("tid").empty());
  EXPECT_EQ(field("args.items"), "3");
}

TEST(Metrics, CountersAreExactUnderParallelIncrements) {
  obs::Counter& c = obs::counter("test.parallel_counter");
  c.set(0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);

  obs::Counter& peak = obs::counter("test.peak_counter");
  peak.set(0);
  peak.set_max(10);
  peak.set_max(3);
  EXPECT_EQ(peak.value(), 10);
}

TEST(Metrics, JsonExportParsesAndCarriesCounters) {
  obs::counter("test.export_counter").set(42);
  const std::string path = (obs_tmp_dir() / "run.metrics.json").string();
  ASSERT_TRUE(obs::write_metrics_json(path));

  const exp::FlatJson flat = exp::parse_json_object(read_file(path));
  std::string exported, rss;
  for (const auto& [key, value] : flat) {
    if (key == "metrics.test.export_counter") exported = value;
    if (key == "metrics.process.rss_peak_kb") rss = value;
  }
  EXPECT_EQ(exported, "42");
  ASSERT_FALSE(rss.empty());
  EXPECT_GT(std::stoll(rss), 0);
}

TEST(Metrics, JsonExportEscapesCounterNames) {
  obs::counter("probe.\"q\"").set(7);
  const std::string path = (obs_tmp_dir() / "escaped.metrics.json").string();
  ASSERT_TRUE(obs::write_metrics_json(path));
  std::string exported;
  for (const auto& [key, value] : exp::parse_json_object(read_file(path)))
    if (key == "metrics.probe.\"q\"") exported = value;
  EXPECT_EQ(exported, "7");
}

TEST(Trace, WrittenJsonEscapesControlCharacters) {
  TracingGuard guard;
  set_tracing(true);
  { FP_TRACE_SCOPE("tab\there \"quoted\"", "test"); }
  const std::string path = (obs_tmp_dir() / "escaped.trace.json").string();
  ASSERT_TRUE(obs::write_trace_json(path));
  const std::string text = read_file(path);
  EXPECT_EQ(text.find('\t'), std::string::npos);  // spelled \t, never raw
  bool found = false;
  for (const auto& [key, value] : exp::parse_json_relaxed(text))
    found = found || value == "tab\there \"quoted\"";
  EXPECT_TRUE(found);
}

TEST(Metrics, PhaseTimerDoesNotDoubleCountReentry) {
  obs::phase_reset();
  const auto sleep_ms = std::chrono::milliseconds(100);
  {
    obs::PhaseTimer outer(obs::Phase::kEval);
    {
      // Nested same-phase scope: only the outermost may accumulate.
      obs::PhaseTimer inner(obs::Phase::kEval);
      std::this_thread::sleep_for(sleep_ms);
    }
  }
  const obs::PhaseBreakdown b = obs::phase_snapshot();
  EXPECT_GE(b.eval_s, 0.1);
  EXPECT_LT(b.eval_s, 0.2) << "nested PhaseTimer double-counted";
  obs::phase_reset();
}

// Enabling span collection must not perturb training: the golden aggregates
// captured from the pre-refactor loops (tests/test_runtime.cpp) must hold
// bit-for-bit with tracing ON, at multiple thread counts.
TEST(TracingOnGolden, JFatHashIsBitIdentical) {
  TracingGuard guard;
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  for (const int threads : {1, 4}) {
    core::set_num_threads(threads);
    set_tracing(true, /*sample_kernels=*/4);
    auto env = tiny_env(data, fl);
    baselines::WholeModelConfig cfg;
    cfg.fl = fl;
    cfg.family = {models::tiny_vgg_spec(16, 4, 4)};
    baselines::WholeModelFAT algo(env, cfg);
    algo.run();
    EXPECT_EQ(fnv1a(algo.global_model().save_all()), kJfatGoldenHash)
        << "tracing perturbed the aggregates at " << threads << " threads";
  }
  // The instrumented round loop actually produced spans.
  bool saw_round = false, saw_client = false;
  for (const auto& e : obs::trace_snapshot()) {
    if (e.name == "round") saw_round = true;
    if (e.name == "client") saw_client = true;
  }
  EXPECT_TRUE(saw_round);
  EXPECT_TRUE(saw_client);
  EXPECT_EQ(obs::dropped_events(), 0);
  core::set_num_threads(1);
}

TEST(TracingOnGolden, FedProphetHashIsBitIdentical) {
  TracingGuard guard;
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  core::set_num_threads(4);
  set_tracing(true, /*sample_kernels=*/4);
  auto env = tiny_env(data, fl);
  fedprophet::FedProphetConfig cfg;
  cfg.fl = fl;
  cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
  const auto full = sys::module_train_mem_bytes(
      cfg.model_spec, 0, cfg.model_spec.atoms.size(), fl.batch_size, false);
  cfg.rmin_bytes = full / 3;
  cfg.rounds_per_module = 2;
  cfg.eval_every = 2;
  cfg.val_samples = 32;
  cfg.device_mem_scale =
      static_cast<double>(full) / (2.0 * static_cast<double>(1ull << 30));
  fedprophet::FedProphet algo(env, cfg);
  algo.train();
  EXPECT_EQ(fnv1a(algo.global_model().save_all()), kFpGoldenHash)
      << "tracing perturbed the FedProphet aggregates";
  core::set_num_threads(1);
}

}  // namespace
}  // namespace fp
