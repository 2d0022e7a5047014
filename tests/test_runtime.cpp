// The federated round engine (fed/runtime/).
//
// * SyncScheduler must reproduce the PRE-REFACTOR round loops bit-for-bit:
//   the golden hashes below were captured from the hand-rolled per-method
//   loops (commit before the engine refactor) at FP_NUM_THREADS=1, and must
//   hold at every thread count.
// * AsyncScheduler must be a deterministic replay: same seed -> same event
//   order, same aggregates, same virtual clock, for any thread count.
// * The staleness-decayed mixing coefficient follows FedAsync's
//   alpha / (staleness + 1), and each blend's weights sum to one.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "baselines/jfat.hpp"
#include "blob_hash.hpp"
#include "core/parallel.hpp"
#include "data/synthetic.hpp"
#include "exp/runner.hpp"
#include "fed/history_io.hpp"
#include "fed/runtime/scheduler.hpp"
#include "fedprophet/fedprophet.hpp"
#include "models/zoo.hpp"

namespace fp {
namespace {

using test::fnv1a;

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

// Golden aggregates captured from the pre-refactor per-method round loops.
constexpr std::uint64_t kJfatGoldenHash = 0xb497721331b34652ull;
constexpr double kJfatGoldenCompute = 0.85740894486153907;
constexpr double kJfatGoldenAccess = 2.798402112722397;
constexpr std::uint64_t kFpGoldenHash = 0xf562929cf09c1982ull;
constexpr double kFpGoldenCompute = 0.0017925484216189708;
constexpr double kFpGoldenEps0 = 0.031372550874948502;
constexpr double kFpGoldenEps2 = 0.017202381044626236;

TEST(SyncScheduler, JFatMatchesPreRefactorGolden) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  for (const int threads : {1, 4}) {
    core::set_num_threads(threads);
    auto env = tiny_env(data, fl);
    baselines::JFatConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
    baselines::JFat algo(env, cfg);
    algo.run();
    EXPECT_EQ(fnv1a(algo.global_model().save_all()), kJfatGoldenHash)
        << "aggregates diverged from the pre-refactor loop at " << threads
        << " threads";
    EXPECT_EQ(algo.sim_time().compute_s, kJfatGoldenCompute);
    EXPECT_EQ(algo.sim_time().access_s, kJfatGoldenAccess);
    // The default IdentityCodec channel must be pure accounting: bytes are
    // counted, but neither the aggregates (hash above) nor the simulated
    // clock may move (network model off by default).
    EXPECT_EQ(cfg.fl.comm.codec, comm::CodecKind::kIdentity);
    EXPECT_GT(algo.total_stats().bytes_up, 0);
    EXPECT_GT(algo.total_stats().bytes_down, 0);
    EXPECT_EQ(algo.sim_time().comm_s, 0.0);
  }
  core::set_num_threads(1);
}

TEST(SyncScheduler, FedProphetMatchesPreRefactorGolden) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  for (const int threads : {1, 4}) {
    core::set_num_threads(threads);
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
        << "aggregates diverged from the pre-refactor loop at " << threads
        << " threads";
    EXPECT_EQ(algo.sim_time().compute_s, kFpGoldenCompute);
    // Identity wire codec: byte accounting without behavior change.
    EXPECT_GT(algo.total_stats().bytes_up, 0);
    EXPECT_EQ(algo.sim_time().comm_s, 0.0);
    ASSERT_EQ(algo.eps_trace().size(), 8u);
    EXPECT_EQ(algo.eps_trace()[0], kFpGoldenEps0);
    EXPECT_EQ(algo.eps_trace()[2], kFpGoldenEps2);
  }
  core::set_num_threads(1);
}

// The declarative experiment API must be a pure re-plumbing: building the
// same tiny scenario through ExperimentSpec + the method registry has to
// reproduce the PRE-REFACTOR golden aggregates bit for bit.
exp::ExperimentSpec tiny_exp_spec(const std::string& method) {
  exp::ExperimentSpec spec;
  spec.method = method;
  for (const char* kv : {
           "workload=cifar", "env.public_set=0", "data.train_size=240",
           "data.test_size=80", "model.classes=4", "model.width=4",
           "fl.num_clients=6", "fl.clients_per_round=3", "fl.local_iters=2",
           "fl.batch_size=16", "fl.pgd_steps=2", "fl.rounds=2", "fl.lr0=0.05",
           "fl.sgd.lr=0.05", "fl.lr_decay=0.994", "fl.seed=123",
       })
    exp::apply_override(spec, kv);
  return spec;
}

TEST(SyncScheduler, RegistryDrivenJFatMatchesPreRefactorGolden) {
  auto setup = exp::build_setup(tiny_exp_spec("jFAT"));
  exp::MethodRun run = exp::method_registry().resolve("jFAT")(setup);
  run.train();
  EXPECT_EQ(fnv1a(run.algo->global_model().save_all()), kJfatGoldenHash)
      << "registry-driven construction diverged from the pre-refactor loop";
  EXPECT_EQ(run.algo->sim_time().compute_s, kJfatGoldenCompute);
  EXPECT_EQ(run.algo->sim_time().access_s, kJfatGoldenAccess);
}

TEST(SyncScheduler, RegistryDrivenFedProphetMatchesPreRefactorGolden) {
  auto spec = tiny_exp_spec("FedProphet");
  const auto model = models::tiny_vgg_spec(16, 4, 4);
  const auto full = sys::module_train_mem_bytes(model, 0, model.atoms.size(),
                                                /*batch=*/16, false);
  spec.fp_rmin_bytes = full / 3;
  spec.fp_rounds_per_module = 2;
  spec.fp_eval_every = 2;
  spec.fp_val_samples = 32;
  spec.device_mem_scale =
      static_cast<double>(full) / (2.0 * static_cast<double>(1ull << 30));
  auto setup = exp::build_setup(spec);
  exp::MethodRun run = exp::method_registry().resolve("FedProphet")(setup);
  run.train();
  EXPECT_EQ(fnv1a(run.algo->global_model().save_all()), kFpGoldenHash)
      << "registry-driven construction diverged from the pre-refactor loop";
  EXPECT_EQ(run.algo->sim_time().compute_s, kFpGoldenCompute);
  auto& fp_algo = dynamic_cast<fedprophet::FedProphet&>(*run.algo);
  ASSERT_EQ(fp_algo.eps_trace().size(), 8u);
  EXPECT_EQ(fp_algo.eps_trace()[0], kFpGoldenEps0);
  EXPECT_EQ(fp_algo.eps_trace()[2], kFpGoldenEps2);
}

TEST(AsyncScheduler, ReplayIsSeedDeterministicAcrossThreadCounts) {
  const auto data = tiny_data();
  auto fl = tiny_fl();
  fl.scheduler = fed::SchedulerKind::kAsync;
  fl.rounds = 6;
  fl.async.dropout_prob = 0.25;
  fl.async.straggler_cutoff_s = 2.0;

  nn::ParamBlob blobs[2];
  double sim[2];
  std::size_t dropped[2];
  const int thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    core::set_num_threads(thread_counts[run]);
    auto env = tiny_env(data, fl);
    baselines::JFatConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
    baselines::JFat algo(env, cfg);
    algo.run();
    blobs[run] = algo.global_model().save_all();
    sim[run] = algo.sim_time().total();
    dropped[run] =
        algo.total_stats().dropped_stragglers + algo.total_stats().dropped_out;
    EXPECT_EQ(algo.total_stats().applied, 6u);
  }
  core::set_num_threads(1);
  ASSERT_EQ(blobs[0].size(), blobs[1].size());
  for (std::size_t i = 0; i < blobs[0].size(); ++i)
    ASSERT_EQ(blobs[0][i], blobs[1][i]) << "async aggregate diverged at " << i;
  EXPECT_EQ(sim[0], sim[1]);
  EXPECT_EQ(dropped[0], dropped[1]);
}

TEST(AsyncScheduler, FedProphetAsyncRunsAndIsDeterministic) {
  const auto data = tiny_data();
  auto fl = tiny_fl();
  fl.scheduler = fed::SchedulerKind::kAsync;
  nn::ParamBlob blobs[2];
  for (int run = 0; run < 2; ++run) {
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
    blobs[run] = algo.global_model().save_all();
  }
  ASSERT_EQ(blobs[0].size(), blobs[1].size());
  for (std::size_t i = 0; i < blobs[0].size(); ++i)
    ASSERT_EQ(blobs[0][i], blobs[1][i]) << "replay diverged at element " << i;
}

// A probe method that records every apply: checks the FedAsync staleness
// weighting alpha / (staleness + 1) and that each blend's weights sum to 1.
class ProbeMethod final : public fed::RoundMethod {
 public:
  struct Applied {
    std::int64_t dispatch_round = 0, finalize_round = -1;
    float mix = 0.0f, weight = 0.0f;
    fed::ApplyMode mode = fed::ApplyMode::kAccumulate;
  };
  void begin_dispatch(const std::vector<fed::TaskSpec>&) override {}
  fed::Upload train_client(const fed::TaskSpec& task) override {
    fed::Upload up;
    up.weight = task.weight;
    up.work.atom_begin = 0;
    up.work.atom_end = 1;
    return up;
  }
  void apply_update(const fed::TaskSpec& task, fed::Upload&& up,
                    fed::ApplyMode mode, float mix) override {
    applied.push_back({task.round, -1, mix, up.weight, mode});
  }
  void finalize_round(std::int64_t t) override {
    if (!applied.empty() && applied.back().finalize_round < 0)
      applied.back().finalize_round = t;
  }
  std::vector<Applied> applied;
};

TEST(AsyncScheduler, StalenessWeightsFollowFedAsyncDecay) {
  const auto data = tiny_data();
  auto fl = tiny_fl();
  fl.scheduler = fed::SchedulerKind::kAsync;
  fl.async.scale_by_data = false;  // isolate the staleness term
  fl.async.alpha = 0.6;
  auto env = tiny_env(data, fl);
  fed::RoundEngine engine(env, fl);
  ProbeMethod probe;
  const std::int64_t rounds = 8;
  for (std::int64_t t = 0; t < rounds; ++t) engine.run_round(probe, t);

  ASSERT_EQ(probe.applied.size(), static_cast<std::size_t>(rounds));
  for (const auto& a : probe.applied) {
    EXPECT_EQ(a.mode, fed::ApplyMode::kBlend);
    const double staleness =
        static_cast<double>(a.finalize_round - a.dispatch_round);
    ASSERT_GE(staleness, 0.0);
    const double expect =
        std::clamp(fl.async.alpha / (staleness + 1.0), fl.async.min_mix, 1.0);
    EXPECT_FLOAT_EQ(a.mix, static_cast<float>(expect));
    // The blend global <- (1-mix)*global + mix*upload is a convex
    // combination: its weights sum to one by construction.
    EXPECT_GT(a.mix, 0.0f);
    EXPECT_LE(a.mix, 1.0f);
  }
}

TEST(RoundEngine, PersistentDeviceBindingKeepsClientOnItsDevice) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  fed::FedEnvConfig ecfg;
  ecfg.fl = fl;
  ecfg.persistent_devices = true;
  auto env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
  ASSERT_EQ(env.device_of_client.size(),
            static_cast<std::size_t>(env.num_clients()));

  fed::RoundEngine engine(env, fl);
  std::vector<std::size_t> seen(env.device_of_client.size(), SIZE_MAX);
  for (std::int64_t t = 0; t < 12; ++t) {
    for (const auto& task : engine.sample_tasks(t, fl.clients_per_round)) {
      ASSERT_TRUE(task.has_device);
      EXPECT_EQ(task.device.pool_index, env.device_of_client[task.client]);
      if (seen[task.client] == SIZE_MAX)
        seen[task.client] = task.device.pool_index;
      EXPECT_EQ(task.device.pool_index, seen[task.client])
          << "client " << task.client << " switched devices";
    }
  }
}

TEST(HistoryIo, CsvRoundTripsRecords) {
  fed::History h;
  h.push_back({5, 0.5, 0.25, 12.5, 0.01, 1024, 4096, 777, 32, 256, 0.75, 2.25});
  h.push_back(
      {10, 0.625, 0.375, 30.0, 0.02, 2048, 8192, 888, 48, 512, 1.5, 4.5});
  const auto dir = std::filesystem::temp_directory_path() / "fp_history_io";
  const auto path = (dir / "m.csv").string();
  ASSERT_TRUE(fed::write_history_csv(path, h));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line,
            "round,clean_acc,adv_acc,sim_time_s,bytes_up,bytes_down,"
            "peak_mem_bytes,unique_participants,agg_bytes_saved,"
            "measured_comm_s,round_wall_s,extra");
  int rows = 0;
  std::string first_row;
  while (std::getline(in, line))
    if (!line.empty()) {
      if (first_row.empty()) first_row = line;
      ++rows;
    }
  EXPECT_EQ(rows, 2);
  EXPECT_NE(first_row.find(",1024,4096,777,32,256,0.75,2.25,"),
            std::string::npos)
      << "per-round byte + peak-mem + scale counts missing from CSV row: "
      << first_row;

  EXPECT_EQ(fed::sanitize_filename("jFAT (fast/42)"), "jFAT__fast_42_");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fp
