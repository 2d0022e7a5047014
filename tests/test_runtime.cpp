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
#include <sstream>

#include "baselines/whole_model.hpp"
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
    baselines::WholeModelConfig cfg;
    cfg.fl = fl;
    cfg.family = {models::tiny_vgg_spec(16, 4, 4)};
    baselines::WholeModelFAT algo(env, cfg);
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

exp::ExperimentSpec tiny_fedprophet_spec() {
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
  return spec;
}

TEST(SyncScheduler, RegistryDrivenFedProphetMatchesPreRefactorGolden) {
  auto setup = exp::build_setup(tiny_fedprophet_spec());
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

// Golden aggregates and simulated clocks of the other six comparison methods
// on the same tiny scenario (with the public split the KD methods need), so a
// refactor of any baseline has a fixed point, not just a two-route compare.
// At the auto device scale one of FedRBN's six selections fits dual-BN AT and
// the rest train standard, so both of its client paths are pinned.
struct BaselineGolden {
  const char* method;
  std::uint64_t hash;
  double compute_s;
  double access_s;
  const char* overrides = "";  ///< space-separated key=value on top
};

constexpr BaselineGolden kBaselineGoldens[] = {
    {"FedRBN", 0xb4c7b286282adda7ull, 0.28580298162051304,
     0.93280070424079886},
    {"FedDF-AT", 0xb9e9f0ba6131aeabull, 0.39868456951756348,
     0.60728060351684698},
    {"FedET-AT", 0xcd1c23494c129583ull, 0.39868456951756348,
     0.60728060351684698},
    {"HeteroFL-AT", 0x20ebd3e2b8ffa9d6ull, 0.34922292206826738,
     0.0},
    {"FedDrop-AT", 0xd443cd232a943c16ull, 0.34922292206826738,
     0.0},
    {"FedRolex-AT", 0x2086fc93b9fa51d3ull, 0.34922292206826738,
     0.0},
    // The partial-training methods off the identity wire and the sync
    // scheduler: lossy uplinks against the broadcast slice (int8 with a
    // coded downlink, top-k deltas), and async single-client refills that
    // keep drawing from the round's slice stream.
    {"FedDrop-AT", 0xc0df76809386ac63ull, 0.34922292206826738, 0.0,
     "comm.codec=int8 comm.compress_downlink=true"},
    {"HeteroFL-AT", 0xbf50613c0cac9f11ull, 0.34922292206826738, 0.0,
     "comm.codec=topk"},
    {"FedRolex-AT", 0xd40309eee6b382f3ull, 0.031298096203751645, 0.0,
     "fl.scheduler=async"},
};

TEST(SyncScheduler, RegistryDrivenBaselinesMatchGoldens) {
  for (const BaselineGolden& g : kBaselineGoldens) {
    auto spec = tiny_exp_spec(g.method);
    exp::apply_override(spec, "env.public_set=1");
    exp::apply_override(spec, "distill.iters=4");
    std::istringstream extra(g.overrides);
    for (std::string kv; extra >> kv;) exp::apply_override(spec, kv);
    auto setup = exp::build_setup(spec);
    exp::MethodRun run = exp::method_registry().resolve(g.method)(setup);
    run.train();
    const std::string cell = std::string(g.method) + " " + g.overrides;
    EXPECT_EQ(fnv1a(run.algo->global_model().save_all()), g.hash) << cell;
    EXPECT_EQ(run.algo->sim_time().compute_s, g.compute_s) << cell;
    EXPECT_EQ(run.algo->sim_time().access_s, g.access_s) << cell;
  }
}

// FedProphet off the identity wire and the sync scheduler: top-k atom and
// aux-head uplinks delta-coded against their broadcast slices, async
// refills blended into the current atoms, and int8 with a coded downlink.
// The distributed equivalence tests compare two runs of the same code, so
// these pins are what fixes the delta references and the blend path.
struct FedProphetWireGolden {
  const char* overrides;
  std::uint64_t hash;
  double compute_s;
};

constexpr FedProphetWireGolden kFedProphetWireGoldens[] = {
    {"comm.codec=topk", 0x189089faa166c553ull, 0.0017925484216189708},
    {"fl.scheduler=async", 0x8206fea2e687a1c8ull, 7.6124993662107733e-05},
    {"comm.codec=int8 comm.compress_downlink=true", 0x6ae83a95ca79837dull,
     0.0017925484216189708},
};

TEST(SyncScheduler, RegistryDrivenFedProphetOffTheIdentityWireMatchesGoldens) {
  for (const FedProphetWireGolden& g : kFedProphetWireGoldens) {
    auto spec = tiny_fedprophet_spec();
    std::istringstream extra(g.overrides);
    for (std::string kv; extra >> kv;) exp::apply_override(spec, kv);
    auto setup = exp::build_setup(spec);
    exp::MethodRun run = exp::method_registry().resolve("FedProphet")(setup);
    run.train();
    EXPECT_EQ(fnv1a(run.algo->global_model().save_all()), g.hash)
        << g.overrides;
    EXPECT_EQ(run.algo->sim_time().compute_s, g.compute_s) << g.overrides;
  }
}

// Every accuracy a run reports, pinned as correct-sample counts over the
// evaluated samples: the final Clean / PGD / AA evaluation, each history
// record's clean and adversarial accuracy, and FedProphet's per-stage final
// prefix accuracies. FedRBN's are its bank split (clean on bank 0, attacks on
// bank 1). Accuracies are count / n in double, so the pins are exact.
struct AccuracyGolden {
  const char* method;
  const char* overrides;
  int final_n;
  int final_counts[3];  ///< clean, PGD, AA
  int history_n;
  std::vector<std::pair<int, int>> history;  ///< clean, adversarial
  std::vector<std::pair<int, int>> stages;   ///< FedProphet final_clean/adv
};

double frac(int count, int n) {
  return static_cast<double>(count) / static_cast<double>(n);
}

TEST(SyncScheduler, RegistryDrivenAccuraciesMatchGoldens) {
  // Four rounds of eight local steps at eps 0.01 move the tiny nets off
  // constant predictions, so clean, PGD and AA differ, and scoring FedRBN's
  // clean accuracy on bank 1 instead of bank 0 changes its final and
  // history pins.
  const AccuracyGolden goldens[] = {
      {"jFAT", "eval.every=1 fl.rounds=4 fl.local_iters=8 fl.epsilon0=0.01",
       80, {37, 36, 36}, 80, {{20, 20}, {20, 20}, {38, 33}, {37, 36}}, {}},
      {"FedRBN",
       "eval.every=1 env.public_set=1 fl.rounds=4 fl.local_iters=8 "
       "fl.epsilon0=0.01",
       80, {37, 28, 28}, 80, {{27, 20}, {38, 20}, {51, 22}, {37, 28}}, {}},
      {"FedProphet", "fl.local_iters=8 fl.epsilon0=0.01", 80, {39, 23, 23},
       32, {{8, 8}, {8, 8}, {15, 14}, {15, 7}},
       {{8, 8}, {8, 8}, {15, 14}, {15, 7}}},
  };
  for (const int threads : {1, 4}) {
    core::set_num_threads(threads);
    for (const AccuracyGolden& g : goldens) {
      auto spec = std::string(g.method) == "FedProphet"
                      ? tiny_fedprophet_spec()
                      : tiny_exp_spec(g.method);
      std::istringstream extra(g.overrides);
      for (std::string kv; extra >> kv;) exp::apply_override(spec, kv);
      auto setup = exp::build_setup(spec);
      exp::MethodRun run = exp::method_registry().resolve(g.method)(setup);
      const exp::RunResult r = exp::run_built(setup, run);
      const std::string cell =
          std::string(g.method) + " at " + std::to_string(threads) + " threads";
      EXPECT_EQ(r.metrics.clean_acc, frac(g.final_counts[0], g.final_n)) << cell;
      EXPECT_EQ(r.metrics.pgd_acc, frac(g.final_counts[1], g.final_n)) << cell;
      EXPECT_EQ(r.metrics.aa_acc, frac(g.final_counts[2], g.final_n)) << cell;
      ASSERT_EQ(r.history.size(), g.history.size()) << cell;
      for (std::size_t i = 0; i < g.history.size(); ++i) {
        EXPECT_EQ(r.history[i].clean_acc, frac(g.history[i].first, g.history_n))
            << cell << " history " << i;
        EXPECT_EQ(r.history[i].adv_acc, frac(g.history[i].second, g.history_n))
            << cell << " history " << i;
      }
      if (g.stages.empty()) continue;
      const auto& stages =
          dynamic_cast<fedprophet::FedProphet&>(*run.algo).stages();
      ASSERT_EQ(stages.size(), g.stages.size()) << cell;
      for (std::size_t i = 0; i < g.stages.size(); ++i) {
        EXPECT_EQ(stages[i].final_clean, frac(g.stages[i].first, g.history_n))
            << cell << " stage " << i;
        EXPECT_EQ(stages[i].final_adv, frac(g.stages[i].second, g.history_n))
            << cell << " stage " << i;
      }
    }
  }
  core::set_num_threads(1);
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
    baselines::WholeModelConfig cfg;
    cfg.fl = fl;
    cfg.family = {models::tiny_vgg_spec(16, 4, 4)};
    baselines::WholeModelFAT algo(env, cfg);
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
  void net_state(comm::StateIO&) override {}
  void net_upload(fed::Upload&, comm::StateIO&) override {}
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

// Records the order clients start training and their uploads land in; a
// client's predicted cost is a function of its slot.
class OrderProbe final : public fed::RoundMethod {
 public:
  static constexpr double kCost[] = {1.0, 3.0, 2.0, 3.0, 1.0, 5.0};
  void begin_dispatch(const std::vector<fed::TaskSpec>&) override {}
  double task_cost(const fed::TaskSpec& task) const override {
    return kCost[task.slot];
  }
  fed::Upload train_client(const fed::TaskSpec& task) override {
    trained.push_back(task.slot);
    fed::Upload up;
    up.weight = task.weight;
    up.work.atom_begin = 0;
    up.work.atom_end = 1;
    return up;
  }
  void apply_update(const fed::TaskSpec& task, fed::Upload&&, fed::ApplyMode,
                    float) override {
    applied.push_back(task.slot);
  }
  void finalize_round(std::int64_t) override {}
  void net_state(comm::StateIO&) override {}
  void net_upload(fed::Upload&, comm::StateIO&) override {}
  std::vector<std::size_t> trained, applied;
};

TEST(RoundEngine, ClientsStartLongestFirstAndApplyInSlotOrder) {
  // One thread starts the clients in exactly the order the pool hands them
  // out: descending cost, ties (slots 1 and 3, 0 and 4) in slot order.
  core::set_num_threads(1);
  const auto data = tiny_data();
  auto fl = tiny_fl();
  fl.clients_per_round = 6;
  const std::vector<std::size_t> longest_first = {5, 1, 3, 2, 0, 4};
  {
    auto env = tiny_env(data, fl);
    fed::RoundEngine engine(env, fl);
    OrderProbe probe;
    engine.run_round(probe, 0);
    EXPECT_EQ(probe.trained, longest_first);
    EXPECT_EQ(probe.applied, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  }
  {
    // The async scheduler's first dispatch fills all six slots at once.
    fl.scheduler = fed::SchedulerKind::kAsync;
    auto env = tiny_env(data, fl);
    fed::RoundEngine engine(env, fl);
    OrderProbe probe;
    engine.run_round(probe, 0);
    ASSERT_GE(probe.trained.size(), 6u);
    EXPECT_EQ(std::vector<std::size_t>(probe.trained.begin(),
                                       probe.trained.begin() + 6),
              longest_first);
  }
}

// FedProphet with paper-scale device memory on the tiny model: memory never
// binds, so DMA's compute budget (Eq. 15) hands fast clients longer blocks
// and a cohort's clients differ in cost.
fedprophet::FedProphetConfig prophet_dma_config(const fed::FlConfig& fl) {
  fedprophet::FedProphetConfig cfg;
  cfg.fl = fl;
  cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
  cfg.rmin_bytes = sys::module_train_mem_bytes(cfg.model_spec, 0,
                                               cfg.model_spec.atoms.size(),
                                               fl.batch_size, false) /
                   3;
  cfg.rounds_per_module = 2;
  cfg.eval_every = 2;
  cfg.val_samples = 32;
  cfg.device_mem_scale = 1.0;
  return cfg;
}

// Captured before clients started longest first (every cohort in slot
// order); the start order must not move a byte.
constexpr std::uint64_t kFpDmaGoldenHash = 0x498f0d249d786595ull;

TEST(SyncScheduler, FedProphetDmaKeepsGoldenLongestFirst) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  for (const int threads : {1, 4}) {
    core::set_num_threads(threads);
    auto env = tiny_env(data, fl);
    fedprophet::FedProphet algo(env, prophet_dma_config(fl));
    algo.train();
    EXPECT_EQ(fnv1a(algo.global_model().save_all()), kFpDmaGoldenHash)
        << "at " << threads << " threads";
  }
  core::set_num_threads(1);
}

TEST(RoundEngine, FedProphetDmaCohortHasUnequalCosts) {
  // The golden above only exercises the start order if some cohort's
  // clients differ in cost.
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  auto env = tiny_env(data, fl);
  fedprophet::FedProphet algo(env, prophet_dma_config(fl));
  fed::RoundMethod& method = algo;
  bool unequal = false;
  for (std::int64_t t = 0; t < 4 && !unequal; ++t) {
    const auto tasks = algo.engine().sample_tasks(t, fl.clients_per_round);
    method.begin_dispatch(tasks);
    for (const auto& task : tasks)
      unequal = unequal ||
                method.task_cost(task) != method.task_cost(tasks.front());
  }
  EXPECT_TRUE(unequal);
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
