#include <gtest/gtest.h>

#include "attack/evaluate.hpp"
#include "cascade/cascade.hpp"
#include "cascade/partitioner.hpp"
#include "cascade/trainer.hpp"
#include "data/synthetic.hpp"
#include "models/zoo.hpp"
#include "tensor/ops.hpp"

namespace fp::cascade {
namespace {

TEST(Partitioner, CoversAllAtomsContiguously) {
  const auto spec = models::vgg16_spec(32, 10);
  const auto p = partition_model(spec, 60ll << 20, 64);
  ASSERT_FALSE(p.modules.empty());
  EXPECT_EQ(p.modules.front().begin, 0u);
  EXPECT_EQ(p.modules.back().end, spec.atoms.size());
  EXPECT_TRUE(p.modules.back().is_last);
  for (std::size_t m = 0; m + 1 < p.modules.size(); ++m) {
    EXPECT_EQ(p.modules[m].end, p.modules[m + 1].begin);
    EXPECT_FALSE(p.modules[m].is_last);
    EXPECT_GT(p.modules[m].num_atoms(), 0u);
  }
}

TEST(Partitioner, RespectsRminWhenFeasible) {
  const auto spec = models::vgg16_spec(32, 10);
  const auto p = partition_model(spec, 60ll << 20, 64);
  for (std::size_t m = 0; m < p.num_modules(); ++m) {
    // Single-atom modules may exceed Rmin (indivisible); multi-atom modules
    // must fit by construction of the greedy packing.
    if (p.modules[m].num_atoms() > 1)
      EXPECT_LE(module_mem_bytes(spec, p, m), p.rmin_bytes) << "module " << m;
  }
}

TEST(Partitioner, HugeBudgetGivesSingleModule) {
  const auto spec = models::vgg16_spec(32, 10);
  const auto p = partition_model(spec, 1ll << 40, 64);
  EXPECT_EQ(p.num_modules(), 1u);
  EXPECT_TRUE(p.modules[0].is_last);
}

TEST(Partitioner, ModuleCountDecreasesWithBudget) {
  const auto spec = models::resnet34_spec(224, 256);
  std::size_t prev = 1000;
  for (const double frac : {0.1, 0.2, 0.5, 1.0}) {
    const auto full = sys::module_train_mem_bytes(spec, 0, spec.atoms.size(), 32,
                                                  false);
    const auto p = partition_model(
        spec, static_cast<std::int64_t>(frac * static_cast<double>(full)), 32);
    EXPECT_LE(p.num_modules(), prev);
    prev = p.num_modules();
  }
  EXPECT_EQ(prev, 1u);
}

TEST(Partitioner, PaperRminGivesAboutSevenModules) {
  // Paper §7.2: Rmin = 60 MB (VGG16@CIFAR, B=64) / 224 MB (ResNet34@Caltech,
  // B=32) both give 7 modules. Our activation accounting differs in detail
  // (DESIGN.md §5), so accept a small band around 7.
  const auto vgg = partition_model(models::vgg16_spec(32, 10), 60ll << 20, 64);
  EXPECT_GE(vgg.num_modules(), 4u);
  EXPECT_LE(vgg.num_modules(), 11u);
  const auto res =
      partition_model(models::resnet34_spec(224, 256), 224ll << 20, 32);
  EXPECT_GE(res.num_modules(), 4u);
  EXPECT_LE(res.num_modules(), 16u);
}

TEST(Partitioner, FormatProducesOneRowPerModule) {
  const auto spec = models::tiny_vgg_spec(16, 10, 4);
  const auto p = partition_model(spec, 1ll << 18, 8);
  const std::string table = format_partition(spec, p);
  std::size_t rows = 0;
  for (const char c : table) rows += c == '\n';
  EXPECT_EQ(rows, p.num_modules() + 2);  // header lines + one row each
}

class CascadeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticConfig dcfg = data::synth_cifar_config();
    dcfg.train_size = 256;
    dcfg.test_size = 96;
    dcfg.num_classes = 4;
    data_ = data::make_synthetic(dcfg);
    spec_ = models::tiny_vgg_spec(16, 4, 4);
    rng_ = Rng(71);
    model_ = std::make_unique<models::BuiltModel>(spec_, rng_);
    // Force a multi-module partition.
    const auto full =
        sys::module_train_mem_bytes(spec_, 0, spec_.atoms.size(), 16, false);
    partition_ = partition_model(spec_, full / 3, 16);
    cascade_ = std::make_unique<CascadeState>(*model_, partition_, rng_);
  }
  data::TrainTest data_;
  sys::ModelSpec spec_;
  Rng rng_{71};
  std::unique_ptr<models::BuiltModel> model_;
  Partition partition_;
  std::unique_ptr<CascadeState> cascade_;
};

TEST_F(CascadeFixture, AuxHeadsExistExceptLast) {
  ASSERT_GE(cascade_->num_modules(), 2u);
  for (std::size_t m = 0; m + 1 < cascade_->num_modules(); ++m)
    EXPECT_NE(cascade_->aux_head(m), nullptr);
  EXPECT_EQ(cascade_->aux_head(cascade_->num_modules() - 1), nullptr);
}

TEST_F(CascadeFixture, PrefixLogitsHaveClassDimension) {
  const auto b = data::take_batch(data_.test, 0, 8);
  for (std::size_t m = 0; m < cascade_->num_modules(); ++m) {
    const Tensor logits = cascade_->prefix_logits(m, b.x, false);
    EXPECT_EQ(logits.shape(), (std::vector<std::int64_t>{8, 4}));
  }
}

TEST_F(CascadeFixture, AuxHeadBlobRoundTrip) {
  const auto aux = cascade_->save_aux(0);
  EXPECT_FALSE(aux.empty());
  cascade_->load_aux(0, aux);
  EXPECT_EQ(cascade_->save_aux(0), aux);
  EXPECT_THROW(cascade_->load_aux(0, nn::ParamBlob(3)), std::invalid_argument);
  // Last module has no aux head: empty blob round-trips, others throw.
  const std::size_t last = cascade_->num_modules() - 1;
  EXPECT_TRUE(cascade_->save_aux(last).empty());
  cascade_->load_aux(last, {});
  EXPECT_THROW(cascade_->load_aux(last, nn::ParamBlob(3)),
               std::invalid_argument);
}

TEST_F(CascadeFixture, TrainerReducesEarlyExitLoss) {
  LocalTrainConfig cfg;
  cfg.module_begin = 0;
  cfg.module_end = 1;
  cfg.mu = 1e-5f;
  cfg.eps_in = 4.0f / 255.0f;
  cfg.pgd_steps = 3;
  cfg.sgd = {0.05f, 0.9f, 1e-4f};
  CascadeLocalTrainer trainer(*cascade_, cfg);
  Rng rng(72);
  data::BatchIterator batches(data_.train, 16, rng);
  float first = 0, last = 0;
  for (int i = 0; i < 40; ++i) {
    const float loss = trainer.train_batch(batches.next(), rng);
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

TEST_F(CascadeFixture, StrongConvexityTermEntersLoss) {
  LocalTrainConfig small, big;
  small.module_begin = big.module_begin = 0;
  small.module_end = big.module_end = 1;
  small.mu = 0.0f;
  big.mu = 1.0f;  // exaggerated so the reg term dominates
  small.adversarial = big.adversarial = false;
  CascadeLocalTrainer ts(*cascade_, small), tb(*cascade_, big);
  const auto b = data::take_batch(data_.train, 0, 16);
  Tensor g1, g2;
  const float l_small = ts.loss_grad(b.x, b.y, &g1, false, false);
  const float l_big = tb.loss_grad(b.x, b.y, &g2, false, false);
  EXPECT_GT(l_big, l_small);          // mu/2 ||z||^2 added
  EXPECT_GT(g2.sub(g1).abs_max(), 0); // and it changes the gradient
}

TEST_F(CascadeFixture, JointMultiModuleTrainingUsesLastAuxHead) {
  ASSERT_GE(cascade_->num_modules(), 2u);
  LocalTrainConfig cfg;
  cfg.module_begin = 0;
  cfg.module_end = 2;  // prophet client trains two modules jointly (Eq. 13)
  cfg.pgd_steps = 2;
  cfg.eps_in = 4.0f / 255.0f;
  CascadeLocalTrainer trainer(*cascade_, cfg);
  EXPECT_EQ(trainer.atom_begin(), partition_.modules[0].begin);
  EXPECT_EQ(trainer.atom_end(), partition_.modules[1].end);
  Rng rng(73);
  data::BatchIterator batches(data_.train, 16, rng);
  EXPECT_GT(trainer.train_batch(batches.next(), rng), 0.0f);
}

TEST_F(CascadeFixture, MeasureOutputPerturbationIsPositiveAndEpsMonotone) {
  LocalTrainConfig cfg;
  cfg.module_begin = 0;
  cfg.module_end = 1;
  cfg.pgd_steps = 5;
  cfg.eps_in = 2.0f / 255.0f;
  CascadeLocalTrainer t_small(*cascade_, cfg);
  cfg.eps_in = 16.0f / 255.0f;
  CascadeLocalTrainer t_big(*cascade_, cfg);
  Rng rng(74);
  const auto b = data::take_batch(data_.train, 0, 16);
  const auto s = t_small.measure_output_perturbation(b, rng);
  const auto g = t_big.measure_output_perturbation(b, rng);
  EXPECT_GT(s.mean_l2, 0.0);
  EXPECT_GE(s.max_l2, s.mean_l2);
  EXPECT_GT(g.mean_l2, s.mean_l2);  // bigger input ball, bigger output swing
  EXPECT_GT(s.dim, 0);
  EXPECT_NEAR(s.mean_per_dim, s.mean_l2 / std::sqrt(static_cast<double>(s.dim)),
              1e-9);
}

TEST_F(CascadeFixture, SecondModuleTrainsOnFrozenFeatures) {
  ASSERT_GE(cascade_->num_modules(), 2u);
  LocalTrainConfig cfg;
  cfg.module_begin = 1;
  cfg.module_end = 2;
  cfg.pgd_steps = 2;
  cfg.eps_in = 0.5f;  // feature-space l2 ball
  CascadeLocalTrainer trainer(*cascade_, cfg);
  // Snapshot module 0's atoms: training module 1 must not change them.
  const ModuleRange& mod0 = cascade_->partition().modules[0];
  const auto snapshot = [&] {
    std::vector<nn::ParamBlob> atoms;
    for (std::size_t a = mod0.begin; a < mod0.end; ++a)
      atoms.push_back(model_->save_atom(a));
    return atoms;
  };
  const auto mod0_before = snapshot();
  Rng rng(75);
  data::BatchIterator batches(data_.train, 16, rng);
  for (int i = 0; i < 3; ++i) trainer.train_batch(batches.next(), rng);
  EXPECT_EQ(snapshot(), mod0_before);
}

TEST_F(CascadeFixture, PrefixValidationReturnsSaneAccuracies) {
  attack::RobustEvalConfig cfg;
  cfg.max_samples = 64;
  cfg.pgd_steps = 3;
  const attack::ShardedNet net =
      shard_prefix(*cascade_, 0, attack::eval_shards(data_.test, cfg));
  const double clean = attack::evaluate_clean(net, data_.test, cfg);
  const double adv = attack::evaluate_pgd(net, data_.test, cfg);
  EXPECT_GE(clean, 0.0);
  EXPECT_LE(clean, 1.0);
  EXPECT_GE(adv, 0.0);
  EXPECT_LE(adv, clean + 0.35);  // adv can't wildly exceed clean
}

}  // namespace
}  // namespace fp::cascade
