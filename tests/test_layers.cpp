#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "core/parallel.hpp"
#include "grad_check.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/lora.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "tensor/compute_mode.hpp"

namespace fp {
namespace {

using test::check_layer_gradients;
using test::GradCheckOptions;

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  nn::Conv2d conv(3, 8, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 8, 8, 8}));
}

TEST(Conv2d, StrideAndPaddingShape) {
  Rng rng(2);
  nn::Conv2d conv(3, 4, 3, 2, 1, rng);
  const Tensor x = Tensor::randn({1, 3, 9, 9}, rng);
  EXPECT_EQ(conv.forward(x, true).shape(), (std::vector<std::int64_t>{1, 4, 5, 5}));
}

struct ConvCase {
  std::int64_t in_c, out_c, k, s, p, img;
  bool bias;
};

class ConvGradTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradTest, GradientsMatchFiniteDifferences) {
  const auto c = GetParam();
  Rng rng(3);
  nn::Conv2d conv(c.in_c, c.out_c, c.k, c.s, c.p, rng, c.bias);
  const Tensor x = Tensor::randn({2, c.in_c, c.img, c.img}, rng);
  check_layer_gradients(conv, x);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradTest,
    ::testing::Values(ConvCase{2, 3, 3, 1, 1, 5, true},
                      ConvCase{3, 2, 3, 2, 1, 6, true},
                      ConvCase{1, 4, 1, 1, 0, 4, false},
                      ConvCase{2, 2, 7, 2, 3, 8, true},
                      ConvCase{4, 3, 2, 2, 0, 6, false}));

TEST(Linear, ForwardMatchesManual) {
  Rng rng(4);
  nn::Linear lin(2, 2, rng);
  lin.weight() = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  lin.bias() = Tensor::from_vector({2}, {0.5, -0.5});
  const Tensor x = Tensor::from_vector({1, 2}, {1, 1});
  const Tensor y = lin.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y[1], 6.5f);   // 3+4-0.5
}

TEST(Linear, AcceptsNchwInputByFlattening) {
  Rng rng(5);
  nn::Linear lin(12, 3, rng);
  const Tensor x = Tensor::randn({2, 3, 2, 2}, rng);
  const Tensor y = lin.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 3}));
  // Backward restores NCHW.
  const Tensor g = lin.backward(Tensor::ones({2, 3}));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Linear, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  nn::Linear lin(7, 4, rng);
  const Tensor x = Tensor::randn({3, 7}, rng);
  check_layer_gradients(lin, x);
}

TEST(ReLU, ForwardAndMask) {
  nn::ReLU relu;
  const Tensor x = Tensor::from_vector({4}, {-1, 0, 0.5, 2});
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 2.0f);
  const Tensor g = relu.backward(Tensor::ones({4}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 1.0f);
}

TEST(Flatten, RoundTrip) {
  nn::Flatten flat;
  Rng rng(7);
  const Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 48}));
  const Tensor g = flat.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(MaxPool2d, ForwardPicksMax) {
  nn::MaxPool2d pool(2);
  const Tensor x =
      Tensor::from_vector({1, 1, 2, 2}, {1, 5, 3, 2}).reshape({1, 1, 2, 2});
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  const Tensor g = pool.backward(Tensor::ones({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(g[1], 1.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(MaxPool2d, GradientsMatchFiniteDifferences) {
  Rng rng(8);
  nn::MaxPool2d pool(2, 2);
  // Well-separated distinct values so no argmax tie flips within +-h.
  Tensor x({2, 3, 6, 6});
  std::vector<std::int64_t> values(static_cast<std::size_t>(x.numel()));
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<std::int64_t>(i);
  rng.shuffle(values);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = 0.1f * static_cast<float>(values[static_cast<std::size_t>(i)]);
  check_layer_gradients(pool, x);
}

TEST(GlobalAvgPool, ForwardAndGradients) {
  Rng rng(9);
  nn::GlobalAvgPool gap;
  const Tensor x = Tensor::full({1, 2, 3, 3}, 2.0f);
  const Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  const Tensor xr = Tensor::randn({2, 3, 4, 4}, rng);
  check_layer_gradients(gap, xr);
}

TEST(BatchNorm2d, TrainOutputIsNormalized) {
  Rng rng(10);
  nn::BatchNorm2d bn(3);
  const Tensor x = Tensor::randn({8, 3, 4, 4}, rng, 5.0f);
  const Tensor y = bn.forward(x, true);
  // Per channel: mean ~ 0, var ~ 1.
  for (std::int64_t c = 0; c < 3; ++c) {
    double s = 0, s2 = 0;
    for (std::int64_t n = 0; n < 8; ++n)
      for (std::int64_t i = 0; i < 16; ++i) {
        const float v = y[(n * 3 + c) * 16 + i];
        s += v;
        s2 += v * v;
      }
    const double mean = s / (8 * 16);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(s2 / (8 * 16) - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, RunningStatsConvergeToDataMoments) {
  Rng rng(11);
  nn::BatchNorm2d bn(1);
  for (int i = 0; i < 200; ++i) {
    const Tensor x = Tensor::randn({16, 1, 2, 2}, rng, 2.0f);
    bn.forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean(0)[0], 0.0f, 0.3f);
  EXPECT_NEAR(bn.running_var(0)[0], 4.0f, 0.6f);
}

TEST(BatchNorm2d, TrackingFreezeStopsUpdates) {
  Rng rng(12);
  nn::BatchNorm2d bn(2);
  bn.set_track_stats(false);
  const Tensor x = Tensor::randn({4, 2, 3, 3}, rng, 3.0f);
  bn.forward(x, true);
  EXPECT_FLOAT_EQ(bn.running_mean(0)[0], 0.0f);
  EXPECT_FLOAT_EQ(bn.running_var(0)[0], 1.0f);
  bn.set_track_stats(true);
  bn.forward(x, true);
  EXPECT_NE(bn.running_mean(0)[0], 0.0f);
}

TEST(BatchNorm2d, DualBanksAreIndependent) {
  Rng rng(13);
  nn::BatchNorm2d bn(1);
  bn.use_bank(1);
  const Tensor x = Tensor::full({4, 1, 2, 2}, 10.0f);
  for (int i = 0; i < 50; ++i) bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean(1)[0], 10.0f, 0.5f);
  EXPECT_FLOAT_EQ(bn.running_mean(0)[0], 0.0f);  // bank 0 untouched
  EXPECT_THROW(bn.use_bank(2), std::invalid_argument);
}

TEST(BatchNorm2d, TrainGradientsMatchFiniteDifferences) {
  Rng rng(14);
  nn::BatchNorm2d bn(3);
  // Non-trivial affine parameters.
  bn.parameters()[0]->fill(1.5f);
  bn.parameters()[1]->fill(-0.2f);
  const Tensor x = Tensor::randn({4, 3, 3, 3}, rng);
  GradCheckOptions opt;
  opt.tol = 8e-2;  // batch-stat coupling amplifies fp32 noise
  check_layer_gradients(bn, x, opt);
}

TEST(BatchNorm2d, EvalGradientsMatchFiniteDifferences) {
  Rng rng(15);
  nn::BatchNorm2d bn(2);
  // Give the running stats some non-trivial values first.
  for (int i = 0; i < 20; ++i) bn.forward(Tensor::randn({8, 2, 3, 3}, rng, 2.0f), true);
  const Tensor x = Tensor::randn({3, 2, 3, 3}, rng);
  GradCheckOptions opt;
  opt.train_mode = false;
  check_layer_gradients(bn, x, opt);
}

TEST(Sequential, ComposesAndBackpropagates) {
  Rng rng(16);
  nn::Sequential seq;
  seq.push_back(std::make_unique<nn::Conv2d>(2, 3, 3, 1, 1, rng));
  seq.push_back(std::make_unique<nn::ReLU>());
  seq.push_back(std::make_unique<nn::MaxPool2d>(2));
  seq.push_back(std::make_unique<nn::Flatten>());
  seq.push_back(std::make_unique<nn::Linear>(3 * 2 * 2, 4, rng));
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  const Tensor y = seq.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 4}));
  check_layer_gradients(seq, x);
}

TEST(BasicBlock, IdentityShortcutShapeAndGradients) {
  Rng rng(17);
  nn::BasicBlock block(3, 3, 1, rng);
  EXPECT_FALSE(block.has_projection());
  const Tensor x = Tensor::randn({2, 3, 5, 5}, rng);
  EXPECT_EQ(block.forward(x, true).shape(), x.shape());
  check_layer_gradients(block, x, {.tol = 8e-2});
}

TEST(BasicBlock, ProjectionShortcutShapeAndGradients) {
  Rng rng(18);
  nn::BasicBlock block(2, 4, 2, rng);
  EXPECT_TRUE(block.has_projection());
  const Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  EXPECT_EQ(block.forward(x, true).shape(), (std::vector<std::int64_t>{2, 4, 3, 3}));
  // Smaller step: shrinks the window in which internal ReLU kinks flip.
  check_layer_gradients(block, x, {.h = 2e-3f, .tol = 1e-1, .abs_floor = 8e-3});
}

TEST(BasicBlock, ForEachBnVisitsAllNorms) {
  Rng rng(19);
  nn::BasicBlock block(2, 4, 2, rng);
  int count = 0;
  block.for_each_bn([&count](nn::BatchNorm2d&) { ++count; });
  EXPECT_EQ(count, 3);  // bn1, bn2, shortcut bn
}

constexpr float kSentinel = 0.375f;

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

bool is_sentinel(const Tensor& g) {
  return same_bytes(g, Tensor::full(g.shape(), kSentinel));
}

/// Runs backward(go) after a fresh forward(x) with every gradients() tensor
/// pre-filled with a sentinel; returns dx and copies the grads to *grads.
Tensor sentinel_backward(nn::Layer& layer, const Tensor& x, bool train,
                         const Tensor& go, std::vector<Tensor>* grads) {
  for (auto* g : layer.gradients()) g->fill(kSentinel);
  layer.forward(x, train);
  Tensor dx = layer.backward(go);
  grads->clear();
  for (auto* g : layer.gradients()) grads->push_back(*g);
  return dx;
}

/// Pool-sized parallel_for regions (4 threads), so a layer that read the
/// thread-local flag inside a pool body would accumulate parameter grads.
class InputGradOnly : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = core::num_threads();
    core::set_num_threads(4);
  }
  void TearDown() override { core::set_num_threads(saved_threads_); }

  /// Under InputGradScope: dx is byte-equal to the plain backward's and no
  /// gradients() tensor is written; without it, every one is.
  static void expect_exact(nn::Layer& layer, const Tensor& x, bool train) {
    Rng rng(31);
    const Tensor go = Tensor::randn(layer.forward(x, train).shape(), rng);
    std::vector<Tensor> full_grads, skipped_grads;
    const Tensor dx_full = sentinel_backward(layer, x, train, go, &full_grads);
    ASSERT_FALSE(full_grads.empty());
    for (std::size_t i = 0; i < full_grads.size(); ++i)
      EXPECT_FALSE(is_sentinel(full_grads[i]))
          << layer.name() << " gradient " << i << " not written by backward";
    // Which chunks the pool threads take varies run to run, so a few
    // repetitions make a flag read on a pool thread show up reliably.
    for (int rep = 0; rep < 4; ++rep) {
      const compute::InputGradScope scope;
      const Tensor dx_skip =
          sentinel_backward(layer, x, train, go, &skipped_grads);
      EXPECT_TRUE(same_bytes(dx_full, dx_skip)) << layer.name();
      for (std::size_t i = 0; i < skipped_grads.size(); ++i)
        EXPECT_TRUE(is_sentinel(skipped_grads[i]))
            << layer.name() << " gradient " << i << " written under the scope";
    }
  }

 private:
  int saved_threads_ = 1;
};

TEST_F(InputGradOnly, Conv2dWithAndWithoutBias) {
  Rng rng(32);
  for (const bool bias : {true, false}) {
    nn::Conv2d conv(3, 8, 3, 1, 1, rng, bias);
    expect_exact(conv, Tensor::randn({16, 3, 16, 16}, rng), true);
  }
}

TEST_F(InputGradOnly, LinearWithAndWithoutBias) {
  Rng rng(33);
  for (const bool bias : {true, false}) {
    // 4096 outputs make 16 bias-reduction chunks, more than the caller
    // drains before the pool threads wake.
    nn::Linear lin(8, 4096, rng, bias);
    expect_exact(lin, Tensor::randn({256, 8}, rng), true);
  }
}

TEST_F(InputGradOnly, BatchNormTrainAndEval) {
  Rng rng(34);
  for (const bool train : {true, false}) {
    nn::BatchNorm2d bn(5);
    for (auto* p : bn.parameters()) p->add_(Tensor::randn(p->shape(), rng, 0.2f));
    expect_exact(bn, Tensor::randn({3, 5, 4, 4}, rng), train);
  }
}

TEST_F(InputGradOnly, LoRaLinear) {
  Rng rng(35);
  nn::LoRaLinear lora(Tensor::randn({6, 9}, rng), Tensor::randn({6}, rng), 3,
                      3.0f, rng);
  // Non-zero B, so dx depends on g_ax and both factor gradients are non-zero.
  for (auto& v : lora.parameters()[1]->span()) v = rng.gaussian(0.0f, 0.3f);
  expect_exact(lora, Tensor::randn({5, 9}, rng), true);
}

TEST_F(InputGradOnly, BasicBlockWithProjection) {
  Rng rng(36);
  nn::BasicBlock block(3, 8, 2, rng);
  ASSERT_TRUE(block.has_projection());
  for (const bool train : {true, false})
    expect_exact(block, Tensor::randn({4, 3, 8, 8}, rng), train);
}

TEST(InputGradScope, NestsRestoresAndStaysOnItsThread) {
  EXPECT_FALSE(compute::input_grad_only());
  {
    const compute::InputGradScope outer;
    EXPECT_TRUE(compute::input_grad_only());
    {
      const compute::InputGradScope inner;
      EXPECT_TRUE(compute::input_grad_only());
    }
    EXPECT_TRUE(compute::input_grad_only());
    bool other_thread = true;
    std::thread([&other_thread] {
      other_thread = compute::input_grad_only();
    }).join();
    EXPECT_FALSE(other_thread);
  }
  EXPECT_FALSE(compute::input_grad_only());
}

}  // namespace
}  // namespace fp
