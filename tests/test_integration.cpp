// Cross-module integration tests: determinism, aggregation round trips,
// cascade-vs-end-to-end coherence, and failure injection.
#include <gtest/gtest.h>

#include "baselines/whole_model.hpp"
#include "cascade/trainer.hpp"
#include "data/synthetic.hpp"
#include "fedprophet/fedprophet.hpp"
#include "models/zoo.hpp"

namespace fp {
namespace {

data::TrainTest tiny_data() {
  data::SyntheticConfig dcfg = data::synth_cifar_config();
  dcfg.train_size = 320;
  dcfg.test_size = 96;
  dcfg.num_classes = 4;
  return data::make_synthetic(dcfg);
}

fed::FlConfig tiny_fl() {
  fed::FlConfig fl;
  fl.num_clients = 5;
  fl.clients_per_round = 2;
  fl.local_iters = 3;
  fl.batch_size = 16;
  fl.pgd_steps = 2;
  fl.lr0 = 0.05f;
  fl.sgd.lr = 0.05f;
  fl.rounds = 4;
  return fl;
}

TEST(Integration, JFatIsDeterministicAcrossRuns) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  nn::ParamBlob first;
  for (int run = 0; run < 2; ++run) {
    fed::FedEnvConfig ecfg;
    ecfg.fl = fl;
    auto env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
    baselines::WholeModelConfig cfg;
    cfg.fl = fl;
    cfg.family = {models::tiny_cnn_spec(16, 4, 4)};
    baselines::WholeModelFAT algo(env, cfg);
    algo.run();
    const auto blob = algo.global_model().save_all();
    if (run == 0)
      first = blob;
    else
      EXPECT_EQ(blob, first);  // bit-for-bit reproducible
  }
}

TEST(Integration, FedProphetIsDeterministicAcrossRuns) {
  const auto data = tiny_data();
  const auto fl = tiny_fl();
  std::vector<double> first_eps;
  nn::ParamBlob first_blob;
  for (int run = 0; run < 2; ++run) {
    fed::FedEnvConfig ecfg;
    ecfg.fl = fl;
    auto env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
    fedprophet::FedProphetConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
    cfg.rmin_bytes = sys::module_train_mem_bytes(
                         cfg.model_spec, 0, cfg.model_spec.atoms.size(), 16,
                         false) /
                     3;
    cfg.rounds_per_module = 3;
    cfg.eval_every = 3;
    fedprophet::FedProphet algo(env, cfg);
    algo.train();
    if (run == 0) {
      first_eps = algo.eps_trace();
      first_blob = algo.global_model().save_all();
    } else {
      EXPECT_EQ(algo.eps_trace(), first_eps);
      EXPECT_EQ(algo.global_model().save_all(), first_blob);
    }
  }
}

TEST(Integration, SingleModulePartitionDegeneratesToEndToEnd) {
  // With Rmin >= full memory FedProphet's cascade has one module whose
  // "early exit loss" is the true joint loss — i.e. plain FAT (paper Fig. 9,
  // rightmost point).
  const auto data = tiny_data();
  auto fl = tiny_fl();
  fed::FedEnvConfig ecfg;
  ecfg.fl = fl;
  auto env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
  fedprophet::FedProphetConfig cfg;
  cfg.fl = fl;
  cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
  cfg.rmin_bytes = 1ll << 40;
  cfg.rounds_per_module = 4;
  cfg.eval_every = 4;
  fedprophet::FedProphet algo(env, cfg);
  EXPECT_EQ(algo.partition().num_modules(), 1u);
  EXPECT_EQ(algo.cascade().aux_head(0), nullptr);
  algo.train();
  EXPECT_EQ(algo.stages().size(), 1u);
}

TEST(Integration, CascadePrefixLogitsMatchBackboneOnLastModule) {
  Rng rng(9090);
  const auto spec = models::tiny_vgg_spec(16, 4, 4);
  models::BuiltModel model(spec, rng);
  const auto full =
      sys::module_train_mem_bytes(spec, 0, spec.atoms.size(), 16, false);
  cascade::CascadeState cas(model, cascade::partition_model(spec, full / 3, 16),
                            rng);
  const Tensor x = Tensor::randn({3, 3, 16, 16}, rng);
  const Tensor via_cascade =
      cas.prefix_logits(cas.num_modules() - 1, x, /*train=*/false);
  const Tensor via_model = model.forward(x, /*train=*/false);
  ASSERT_EQ(via_cascade.shape(), via_model.shape());
  for (std::int64_t i = 0; i < via_model.numel(); ++i)
    EXPECT_FLOAT_EQ(via_cascade[i], via_model[i]);
}

TEST(Integration, AggregatingIdenticalClientsIsIdentity) {
  // FedAvg of n copies of the same weights must be exactly those weights.
  Rng rng(9191);
  const auto spec = models::tiny_cnn_spec(16, 4, 4);
  models::BuiltModel model(spec, rng);
  const auto blob = model.save_all();
  fed::BlobAverager avg;
  for (int k = 0; k < 3; ++k) avg.add(blob, 0.2f + 0.1f * static_cast<float>(k));
  const auto mean = avg.average();
  for (std::size_t i = 0; i < blob.size(); ++i)
    EXPECT_NEAR(mean[i], blob[i], 1e-6f);
}

TEST(Integration, AdversarialTrainingBeatsStandardUnderAttack) {
  // The library-level version of the paper's core premise: with everything
  // else fixed, PGD-AT yields higher adversarial accuracy than ST.
  const auto data = tiny_data();
  auto fl = tiny_fl();
  fl.rounds = 12;
  fl.local_iters = 4;
  double adv_at = 0, adv_st = 0;
  for (const bool adversarial : {true, false}) {
    fed::FedEnvConfig ecfg;
    ecfg.fl = fl;
    auto env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
    baselines::WholeModelConfig cfg;
    cfg.fl = fl;
    cfg.family = {models::tiny_vgg_spec(16, 4, 4)};
    cfg.adversarial = adversarial;
    baselines::WholeModelFAT algo(env, cfg);
    algo.run();
    attack::RobustEvalConfig e;
    e.pgd_steps = 10;
    e.max_samples = 96;
    e.epsilon = 12.0f / 255.0f;
    (adversarial ? adv_at : adv_st) =
        attack::evaluate_pgd(algo.global_model(), env.test, e);
  }
  EXPECT_GT(adv_at, adv_st);
}

TEST(Integration, TrainerRejectsInvalidModuleRanges) {
  Rng rng(9292);
  const auto spec = models::tiny_vgg_spec(16, 4, 4);
  models::BuiltModel model(spec, rng);
  const auto full =
      sys::module_train_mem_bytes(spec, 0, spec.atoms.size(), 16, false);
  cascade::CascadeState cas(model, cascade::partition_model(spec, full / 3, 16),
                            rng);
  cascade::LocalTrainConfig cfg;
  cfg.module_begin = 1;
  cfg.module_end = 1;  // empty
  EXPECT_THROW(cascade::CascadeLocalTrainer(cas, cfg), std::invalid_argument);
  cfg.module_end = cas.num_modules() + 1;  // out of range
  EXPECT_THROW(cascade::CascadeLocalTrainer(cas, cfg), std::out_of_range);
}

TEST(Integration, EnvRejectsDistillationWithoutClients) {
  const auto data = tiny_data();
  data::PartitionConfig pcfg;
  pcfg.num_clients = 0;
  EXPECT_THROW(data::partition_non_iid(data.train, pcfg), std::invalid_argument);
}

TEST(Integration, EmptyShardIsRejectedByBatchIterator) {
  data::Dataset empty;
  empty.num_classes = 2;
  Rng rng(1);
  EXPECT_THROW(data::BatchIterator(empty, 4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace fp
