// Bit-exact reproducibility of federated training across thread counts.
//
// The contract (core/parallel.hpp): per-client RNG streams, client-ordered
// server aggregation, and partition-independent kernel summation make a
// round's result a pure function of the seed — FP_NUM_THREADS must only
// change wall-clock, never a single bit of the aggregates. Robust
// evaluation shards each batch over one replica per thread
// (attack/sharded.hpp), so its accuracies are held to the same contract.
#include <gtest/gtest.h>

#include <cstring>

#include "attack/evaluate.hpp"
#include "baselines/jfat.hpp"
#include "core/parallel.hpp"
#include "data/synthetic.hpp"
#include "exp/runner.hpp"
#include "fedprophet/fedprophet.hpp"
#include "models/zoo.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace fp {
namespace {

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

void expect_blobs_identical(const nn::ParamBlob& a, const nn::ParamBlob& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "aggregate diverged at element " << i;
}

TEST(Determinism, JFatRoundsBitIdenticalAcrossThreadCounts) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  nn::ParamBlob blobs[2];
  const int thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    core::set_num_threads(thread_counts[run]);
    fed::FedEnvConfig ecfg;
    ecfg.fl = fl;
    fed::FedEnv env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
    baselines::JFatConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
    baselines::JFat algo(env, cfg);
    algo.run();
    blobs[run] = algo.global_model().save_all();
  }
  core::set_num_threads(1);
  expect_blobs_identical(blobs[0], blobs[1]);
}

TEST(Determinism, FedProphetTrainBitIdenticalAcrossThreadCounts) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  nn::ParamBlob blobs[2];
  std::vector<double> traces[2];
  const int thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    core::set_num_threads(thread_counts[run]);
    fed::FedEnvConfig ecfg;
    ecfg.fl = fl;
    fed::FedEnv env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
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
    traces[run] = algo.eps_trace();
  }
  core::set_num_threads(1);
  expect_blobs_identical(blobs[0], blobs[1]);
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t i = 0; i < traces[0].size(); ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "eps trace diverged at round " << i;
}

/// A few SGD steps on tiny VGG, so attacks meet a model that classifies.
std::unique_ptr<models::BuiltModel> trained_tiny_vgg(const data::TrainTest& data) {
  Rng rng(91);
  auto model =
      std::make_unique<models::BuiltModel>(models::tiny_vgg_spec(16, 4, 4), rng);
  const std::size_t atoms = model->num_atoms();
  nn::Sgd opt(model->parameters_range(0, atoms), model->gradients_range(0, atoms),
              {0.05f, 0.9f, 1e-4f});
  data::BatchIterator batches(data.train, 16, rng);
  for (int i = 0; i < 30; ++i) {
    const auto b = batches.next();
    model->zero_grad_range(0, atoms);
    const Tensor logits = model->forward(b.x, /*train=*/true);
    model->backward_range(0, atoms, cross_entropy_grad(logits, b.y));
    opt.step();
  }
  return model;
}

void expect_same_double(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << what << ": " << a
                                                    << " vs " << b;
}

TEST(Determinism, RobustAndPrefixEvaluationBitIdenticalAcrossThreadCounts) {
  const auto data = tiny_data();
  const auto model = trained_tiny_vgg(data);
  const auto& spec = model->spec();
  const auto full =
      sys::module_train_mem_bytes(spec, 0, spec.atoms.size(), 16, false);
  Rng aux_rng(92);
  cascade::CascadeState cascade(
      *model, cascade::partition_model(spec, full / 3, 16), aux_rng);
  ASSERT_GE(cascade.num_modules(), 2u);

  // max_samples > batch_size: two full batches and a ragged 16-row one.
  attack::RobustEvalConfig rcfg;
  rcfg.pgd_steps = rcfg.aa_steps = 3;
  rcfg.batch_size = 32;
  rcfg.max_samples = 80;
  cascade::PrefixEvalConfig pcfg;
  pcfg.pgd_steps = 3;
  pcfg.batch_size = 32;
  pcfg.max_samples = 80;

  attack::RobustEvalResult robust[2];
  cascade::PrefixAccuracy prefix[2][2];
  const int thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    core::set_num_threads(thread_counts[run]);
    robust[run] = attack::evaluate_robustness(*model, data.test, rcfg);
    prefix[run][0] = cascade::evaluate_prefix(cascade, 0, data.test, pcfg);
    prefix[run][1] = cascade::evaluate_prefix(
        cascade, cascade.num_modules() - 1, data.test, pcfg);
  }
  core::set_num_threads(1);
  expect_same_double(robust[0].clean_acc, robust[1].clean_acc, "clean");
  expect_same_double(robust[0].pgd_acc, robust[1].pgd_acc, "pgd");
  expect_same_double(robust[0].aa_acc, robust[1].aa_acc, "aa");
  EXPECT_LT(robust[0].pgd_acc, robust[0].clean_acc);  // the attack bites
  for (int m = 0; m < 2; ++m) {
    expect_same_double(prefix[0][m].clean, prefix[1][m].clean, "prefix clean");
    expect_same_double(prefix[0][m].adv, prefix[1][m].adv, "prefix adv");
  }
}

TEST(Determinism, FedRbnAdversarialBankEvaluationBitIdenticalAcrossThreadCounts) {
  // FedRBN scores PGD and AA on its adversarial BN bank. Shard replicas are
  // rebuilt from save_all, which does not carry the bank choice. Six rounds
  // train the banks far enough apart that evaluating on bank 0 changes the
  // 4-thread PGD and AA accuracies.
  attack::RobustEvalResult results[2];
  const int thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    core::set_num_threads(thread_counts[run]);
    exp::ExperimentSpec spec;
    spec.method = "FedRBN";
    for (const char* kv :
         {"workload=cifar", "model.width=4", "model.classes=4",
          "data.train_size=240", "data.test_size=80", "fl.num_clients=6",
          "fl.clients_per_round=3", "fl.local_iters=4", "fl.batch_size=16",
          "fl.pgd_steps=2", "fl.rounds=6", "fl.lr0=0.05", "fl.sgd.lr=0.05",
          "fl.seed=123"})
      exp::apply_override(spec, kv);
    exp::Setup setup = exp::build_setup(spec);
    exp::MethodRun method = exp::method_registry().resolve("FedRBN")(setup);
    method.train();
    attack::RobustEvalConfig e;
    e.pgd_steps = e.aa_steps = 3;
    e.batch_size = 32;
    e.max_samples = 80;
    results[run] = method.evaluate(e);
  }
  core::set_num_threads(1);
  expect_same_double(results[0].clean_acc, results[1].clean_acc, "clean");
  expect_same_double(results[0].pgd_acc, results[1].pgd_acc, "pgd");
  expect_same_double(results[0].aa_acc, results[1].aa_acc, "aa");
}

}  // namespace
}  // namespace fp
