#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "attack/attacks.hpp"
#include "attack/evaluate.hpp"
#include "attack/sharded.hpp"
#include "cascade/trainer.hpp"
#include "core/parallel.hpp"
#include "data/synthetic.hpp"
#include "models/zoo.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "tensor/compute_mode.hpp"
#include "tensor/ops.hpp"

namespace fp::attack {
namespace {

/// Quadratic toy objective: loss = ||x - target||^2 (grows away from target).
LossGradFn quadratic_loss(const Tensor& target) {
  return [target](const Tensor& x, const std::vector<std::int64_t>&,
                  Tensor* grad) {
    Tensor diff = x.sub(target);
    if (grad) *grad = diff.scaled(2.0f);
    return diff.dot(diff);
  };
}

TEST(Project, LinfClampsToBox) {
  PgdConfig cfg;
  cfg.epsilon = 0.1f;
  Tensor delta = Tensor::from_vector({1, 3}, {0.5f, -0.2f, 0.05f});
  project(delta, cfg);
  EXPECT_FLOAT_EQ(delta[0], 0.1f);
  EXPECT_FLOAT_EQ(delta[1], -0.1f);
  EXPECT_FLOAT_EQ(delta[2], 0.05f);
}

TEST(Project, L2RescalesPerSample) {
  PgdConfig cfg;
  cfg.epsilon = 1.0f;
  cfg.norm = Norm::kL2;
  Tensor delta = Tensor::from_vector({2, 2}, {3, 4, 0.3f, 0.4f});
  project(delta, cfg);
  EXPECT_NEAR(delta.row_l2_norms()[0], 1.0f, 1e-5);   // shrunk from 5
  EXPECT_NEAR(delta.row_l2_norms()[1], 0.5f, 1e-5);   // untouched
}

TEST(Fgsm, StepsInGradientSignDirection) {
  PgdConfig cfg;
  cfg.epsilon = 0.25f;
  cfg.clip = false;
  const Tensor x = Tensor::from_vector({1, 2}, {0.0f, 0.0f});
  const Tensor target = Tensor::from_vector({1, 2}, {-1.0f, 2.0f});
  // grad = 2(x - target) = (2, -4): ascent moves +eps, -eps.
  const Tensor adv = fgsm(quadratic_loss(target), x, {0}, cfg);
  EXPECT_FLOAT_EQ(adv[0], 0.25f);
  EXPECT_FLOAT_EQ(adv[1], -0.25f);
}

TEST(Pgd, StaysInsideLinfBallAndValidRange) {
  Rng rng(61);
  PgdConfig cfg;
  cfg.epsilon = 0.1f;
  cfg.steps = 10;
  const Tensor x = Tensor::rand_uniform({4, 8}, rng, 0.0f, 1.0f);
  const Tensor target = Tensor::randn({4, 8}, rng);
  const Tensor adv = pgd(quadratic_loss(target), x, {0, 0, 0, 0}, cfg, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::abs(adv[i] - x[i]), cfg.epsilon + 1e-5f);
    EXPECT_GE(adv[i], 0.0f);
    EXPECT_LE(adv[i], 1.0f);
  }
}

TEST(Pgd, StaysInsideL2Ball) {
  Rng rng(62);
  PgdConfig cfg;
  cfg.epsilon = 0.5f;
  cfg.steps = 8;
  cfg.norm = Norm::kL2;
  cfg.clip = false;
  const Tensor x = Tensor::randn({3, 10}, rng);
  const Tensor target = Tensor::randn({3, 10}, rng);
  const Tensor adv = pgd(quadratic_loss(target), x, {0, 0, 0}, cfg, rng);
  const auto norms = adv.sub(x).row_l2_norms();
  for (const auto n : norms) EXPECT_LE(n, cfg.epsilon + 1e-4f);
}

TEST(Pgd, IncreasesTheLoss) {
  Rng rng(63);
  PgdConfig cfg;
  cfg.epsilon = 0.3f;
  cfg.steps = 10;
  cfg.clip = false;
  const auto fn = quadratic_loss(Tensor::zeros({2, 6}));
  const Tensor x = Tensor::randn({2, 6}, rng);
  const float before = fn(x, {0, 0}, nullptr);
  const Tensor adv = pgd(fn, x, {0, 0}, cfg, rng);
  EXPECT_GT(fn(adv, {0, 0}, nullptr), before);
}

TEST(Apgd, StaysInBallAndBeatsOrMatchesNoAttack) {
  Rng rng(64);
  PgdConfig cfg;
  cfg.epsilon = 0.2f;
  cfg.steps = 15;
  cfg.clip = false;
  const auto fn = quadratic_loss(Tensor::zeros({2, 5}));
  const Tensor x = Tensor::randn({2, 5}, rng);
  const Tensor adv = apgd(fn, x, {0, 0}, cfg, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_LE(std::abs(adv[i] - x[i]), cfg.epsilon + 1e-5f);
  EXPECT_GE(fn(adv, {0, 0}, nullptr), fn(x, {0, 0}, nullptr));
}

TEST(Pgd, ThrowingLossGradRestoresTheScope) {
  Rng rng(67);
  const LossGradFn fn = [](const Tensor&, const std::vector<std::int64_t>&,
                           Tensor*) -> float {
    EXPECT_TRUE(compute::input_grad_only());
    throw std::runtime_error("loss failed");
  };
  PgdConfig cfg;
  EXPECT_THROW(pgd(fn, Tensor::zeros({1, 4}), {0}, cfg, rng),
               std::runtime_error);
  EXPECT_FALSE(compute::input_grad_only());
}

/// Trains a tiny model for a few epochs, then checks attack-evaluation
/// orderings that must hold for any sane implementation.
class EvalFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig dcfg = data::synth_cifar_config();
    dcfg.train_size = 512;
    dcfg.test_size = 128;  // >= 100: the sharded tests take 100-row batches
    dcfg.num_classes = 4;
    data_ = new data::TrainTest(data::make_synthetic(dcfg));
    Rng rng(65);
    model_ = new models::BuiltModel(models::tiny_cnn_spec(16, 4, 8), rng);
    nn::Sgd opt(model_->parameters_range(0, model_->num_atoms()),
                model_->gradients_range(0, model_->num_atoms()),
                {0.05f, 0.9f, 1e-4f});
    Rng data_rng(66);
    data::BatchIterator batches(data_->train, 32, data_rng);
    for (int i = 0; i < 120; ++i) {
      const auto b = batches.next();
      model_->zero_grad_range(0, model_->num_atoms());
      const Tensor logits = model_->forward(b.x, true);
      model_->backward_range(0, model_->num_atoms(),
                             cross_entropy_grad(logits, b.y));
      opt.step();
    }
  }
  static void TearDownTestSuite() {
    delete data_;
    delete model_;
    data_ = nullptr;
    model_ = nullptr;
  }
  static data::TrainTest* data_;
  static models::BuiltModel* model_;
};

data::TrainTest* EvalFixture::data_ = nullptr;
models::BuiltModel* EvalFixture::model_ = nullptr;

TEST_F(EvalFixture, CleanModelLearnedSomething) {
  EXPECT_GT(evaluate_clean(*model_, data_->test), 0.5);  // chance = 0.25
}

TEST_F(EvalFixture, AttackOrderingCleanGePgdGeAa) {
  RobustEvalConfig cfg;
  cfg.epsilon = 16.0f / 255.0f;
  cfg.pgd_steps = 10;
  cfg.aa_steps = 10;
  cfg.aa_restarts = 1;
  cfg.max_samples = 96;
  const auto r = evaluate_robustness(*model_, data_->test, cfg);
  EXPECT_GE(r.clean_acc + 1e-9, r.pgd_acc);
  EXPECT_GE(r.pgd_acc + 1e-9, r.aa_acc);
  // A standard-trained model must lose accuracy under attack.
  EXPECT_LT(r.pgd_acc, r.clean_acc);
}

TEST_F(EvalFixture, StrongerEpsilonHurtsMore) {
  RobustEvalConfig weak, strong;
  weak.epsilon = 2.0f / 255.0f;
  strong.epsilon = 32.0f / 255.0f;
  weak.max_samples = strong.max_samples = 96;
  weak.pgd_steps = strong.pgd_steps = 10;
  EXPECT_GE(evaluate_pgd(*model_, data_->test, weak) + 1e-9,
            evaluate_pgd(*model_, data_->test, strong));
}

TEST_F(EvalFixture, DlrLossGradBackpropagates) {
  const auto b = data::take_batch(data_->test, 0, 16);
  auto fn = model_dlr_lossgrad(*model_);
  Tensor grad(b.x.shape());
  fn(b.x, b.y, &grad);
  EXPECT_GT(grad.abs_max(), 0.0f);
}

TEST_F(EvalFixture, AttacksLeaveParameterGradientsAtZero) {
  auto& model = *model_;
  const std::size_t atoms = model.num_atoms();
  const auto grads = model.gradients_range(0, atoms);
  const auto all_zero = [&grads] {
    for (const auto* g : grads)
      if (g->abs_max() != 0.0f) return false;
    return true;
  };
  const auto b = data::take_batch(data_->test, 0, 16);
  PgdConfig cfg;
  cfg.steps = 3;
  Rng rng(68);
  model.zero_grad_range(0, atoms);
  for (const auto& fn : {model_ce_lossgrad(model), model_dlr_lossgrad(model)}) {
    pgd(fn, b.x, b.y, cfg, rng);
    EXPECT_TRUE(all_zero()) << "pgd";
    apgd(fn, b.x, b.y, cfg, rng);
    EXPECT_TRUE(all_zero()) << "apgd";
    fgsm(fn, b.x, b.y, cfg);
    EXPECT_TRUE(all_zero()) << "fgsm";
  }
  RobustEvalConfig rcfg;
  rcfg.pgd_steps = rcfg.aa_steps = 2;
  rcfg.max_samples = 32;
  evaluate_robustness(model, data_->test, rcfg);
  EXPECT_TRUE(all_zero()) << "evaluate_robustness";

  // The scope closed on return: a plain backward accumulates again.
  EXPECT_FALSE(compute::input_grad_only());
  const Tensor logits = model.forward(b.x, /*train=*/false);
  model.backward_range(0, atoms, cross_entropy_grad(logits, b.y));
  for (const auto* g : grads) EXPECT_GT(g->abs_max(), 0.0f);
  model.zero_grad_range(0, atoms);
}

// ---- Sample-sharded evaluation (attack/sharded.hpp) ---------------------------

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// One loss/grad call of each function on the same batch, as an attack step
/// makes it: byte-equal loss and d loss / d x.
void expect_same_lossgrad(const LossGradFn& plain, const LossGradFn& sharded,
                          const data::Batch& b, const std::string& what) {
  const compute::InputGradScope scope;
  Tensor g_plain, g_sharded;
  const float l_plain = plain(b.x, b.y, &g_plain);
  const float l_sharded = sharded(b.x, b.y, &g_sharded);
  EXPECT_EQ(std::memcmp(&l_plain, &l_sharded, sizeof(float)), 0)
      << what << ": loss " << l_plain << " vs " << l_sharded;
  EXPECT_TRUE(same_bytes(g_plain, g_sharded)) << what << ": grad_x differs";
}

const std::int64_t kShardRows[] = {1, 7, 48, 96, 100};

TEST_F(EvalFixture, ShardedModelLossGradIsByteIdentical) {
  auto& model = *model_;
  for (const std::int64_t rows : kShardRows) {
    const auto b = data::take_batch(data_->test, 0, rows);
    for (std::size_t shards = 1; shards <= 5; ++shards) {
      const ShardedNet net = shard_model(model, shards);
      const std::string what =
          "rows " + std::to_string(rows) + " shards " + std::to_string(shards);
      expect_same_lossgrad(model_ce_lossgrad(model),
                           net.lossgrad(cross_entropy, cross_entropy_grad), b,
                           what + " ce");
      expect_same_lossgrad(model_dlr_lossgrad(model),
                           net.lossgrad(dlr_loss, dlr_loss_grad), b,
                           what + " dlr");
      const Tensor logits = model.forward(b.x, /*train=*/false);
      EXPECT_EQ(net.predict(b.x, {}), logits.argmax_rows()) << what;
    }
  }
}

TEST_F(EvalFixture, ShardReplicasKeepTheActiveBnBank) {
  // A FedRBN-style model evaluated on its adversarial bank: bank 1 holds
  // statistics unlike bank 0, and replicas must normalize with it too.
  auto copy = eval_replicas(*model_, 1);
  models::BuiltModel& model = *copy.front();
  for (std::size_t a = 0; a < model.num_atoms(); ++a)
    model.atom(a).for_each_bn([](nn::BatchNorm2d& bn) {
      bn.running_mean(1) = bn.running_mean(0);
      bn.running_mean(1).add_scalar_(0.05f);
      bn.running_var(1) = bn.running_var(0).scaled(1.5f);
    });
  model.use_bn_bank(1);
  ASSERT_EQ(model.active_bn_bank(), 1);
  const auto b = data::take_batch(data_->test, 0, 48);
  const ShardedNet net = shard_model(model, 4);
  expect_same_lossgrad(model_ce_lossgrad(model),
                       net.lossgrad(cross_entropy, cross_entropy_grad), b,
                       "bank 1");
  // The check has teeth: bank 0 gives different gradients.
  Tensor g_bank1, g_bank0;
  {
    const compute::InputGradScope scope;
    model_ce_lossgrad(model)(b.x, b.y, &g_bank1);
    model.use_bn_bank(0);
    model_ce_lossgrad(model)(b.x, b.y, &g_bank0);
  }
  EXPECT_FALSE(same_bytes(g_bank1, g_bank0));
}

TEST_F(EvalFixture, ShardedPrefixLossGradIsByteIdentical) {
  Rng rng(69);
  const auto spec = models::tiny_vgg_spec(16, 4, 4);
  models::BuiltModel model(spec, rng);
  const auto full =
      sys::module_train_mem_bytes(spec, 0, spec.atoms.size(), 16, false);
  cascade::CascadeState cascade(
      model, cascade::partition_model(spec, full / 3, 16), rng);
  ASSERT_GE(cascade.num_modules(), 2u);
  for (const std::size_t m : {std::size_t{0}, cascade.num_modules() - 1}) {
    const LossGradFn plain = [&cascade, m](const Tensor& x,
                                           const std::vector<std::int64_t>& y,
                                           Tensor* g) {
      const Tensor logits = cascade.prefix_logits(m, x, /*train=*/false);
      if (g) *g = cascade.prefix_backward(m, 0, cross_entropy_grad(logits, y));
      return cross_entropy(logits, y);
    };
    for (const std::int64_t rows : kShardRows) {
      const auto b = data::take_batch(data_->test, 0, rows);
      for (std::size_t shards = 1; shards <= 5; ++shards)
        expect_same_lossgrad(
            plain,
            cascade::shard_prefix(cascade, m, shards)
                .lossgrad(cross_entropy, cross_entropy_grad),
            b,
            "module " + std::to_string(m) + " rows " + std::to_string(rows) +
                " shards " + std::to_string(shards));
    }
  }
}

TEST_F(EvalFixture, ShardedLossGradIssuesShardsTimesThePlainGemms) {
  // Every shard runs the plain call's GEMMs on its rows and nothing else. A
  // worker that did not re-open the caller's InputGradScope would add its
  // weight-gradient GEMMs and break the equality.
  const int saved_threads = core::num_threads();
  core::set_num_threads(4);
  obs::Counter& gemms = obs::counter("kernel.gemm_calls");
  const auto b = data::take_batch(data_->test, 0, 96);
  const auto count = [&](const LossGradFn& fn) {
    const compute::InputGradScope scope;
    Tensor g;
    const std::int64_t before = gemms.value();
    fn(b.x, b.y, &g);
    return gemms.value() - before;
  };
  const std::int64_t plain = count(model_ce_lossgrad(*model_));
  ASSERT_GT(plain, 0);
  for (std::size_t shards = 1; shards <= 4; ++shards) {
    const ShardedNet net = shard_model(*model_, shards);
    EXPECT_EQ(count(net.lossgrad(cross_entropy, cross_entropy_grad)),
              static_cast<std::int64_t>(shards) * plain)
        << shards << " shards";
  }
  core::set_num_threads(saved_threads);
}

}  // namespace
}  // namespace fp::attack
