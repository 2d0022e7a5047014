#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "grad_check.hpp"
#include "mem/arena.hpp"
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

// ---- Byte parity of the BatchNorm, ReLU and max-pool kernels --------------
// Each layer is checked against a scalar oracle restated here (the loops the
// layers ran before their AVX-512 kernels, with max-pool's window index
// seeded at the window's first tap): on a host that takes the vector paths,
// every output, running statistic and gradient must match byte for byte.

/// Byte equality, naming the first differing element on failure.
::testing::AssertionResult bytes_equal(const Tensor& a, const Tensor& b) {
  if (same_bytes(a, b)) return ::testing::AssertionSuccess();
  if (a.shape() != b.shape())
    return ::testing::AssertionFailure() << a.shape_str() << " vs "
                                         << b.shape_str();
  std::int64_t i = 0;
  while (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) == 0) ++i;
  return ::testing::AssertionFailure()
         << "element " << i << ": " << a[i] << " vs " << b[i];
}

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNaN = std::numeric_limits<float>::quiet_NaN();
const float kDenormal = std::numeric_limits<float>::denorm_min() * 37.0f;

/// Writes ±0 and denormals over every channel of an NCHW tensor, NaN into
/// channel 1, +inf into channel 2 and both infinities into channel 10 (8
/// channels apart from 2, so it shares a vector lane with it).
void sprinkle_specials(Tensor& t, Rng& rng) {
  const std::int64_t n = t.dim(0), c = t.dim(1), plane = t.numel() / (n * c);
  const auto at = [&](std::int64_t ch) {
    const auto i = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(n)));
    const auto j = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(plane)));
    return &t.data()[(i * c + ch) * plane + j];
  };
  for (std::int64_t ch = 0; ch < c; ++ch) {
    *at(ch) = 0.0f;
    *at(ch) = -0.0f;
    *at(ch) = kDenormal;
    *at(ch) = -kDenormal;
  }
  if (c > 1) *at(1) = kNaN;
  if (c > 2) *at(2) = kInf;
  if (c > 10) {
    *at(10) = kInf;
    *at(10) = -kInf;
  }
}

struct BnOracle {
  Tensor gamma, beta, running_mean[2], running_var[2], dgamma, dbeta;
  Tensor xhat, inv_std;
  bool train = false;

  explicit BnOracle(nn::BatchNorm2d& bn)
      : gamma(*bn.parameters()[0]),
        beta(*bn.parameters()[1]),
        running_mean{bn.running_mean(0), bn.running_mean(1)},
        running_var{bn.running_var(0), bn.running_var(1)},
        dgamma(*bn.gradients()[0]),
        dbeta(*bn.gradients()[1]) {}

  Tensor forward(const Tensor& x, bool is_train, bool track, int bank,
                 float momentum = 0.1f, float eps = 1e-5f) {
    const std::int64_t n = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
    const std::int64_t count = n * plane;
    train = is_train;
    xhat = Tensor(x.shape());
    inv_std = Tensor({c});
    Tensor out(x.shape());
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double mean, var;
      if (train) {
        double s = 0.0, s2 = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
          const float* p = x.data() + (i * c + ch) * plane;
          for (std::int64_t j = 0; j < plane; ++j) {
            s += p[j];
            s2 += static_cast<double>(p[j]) * p[j];
          }
        }
        mean = s / count;
        var = s2 / count - mean * mean;
        if (var < 0.0) var = 0.0;
        if (track) {
          const double unbiased = count > 1 ? var * count / (count - 1) : var;
          Tensor& rm = running_mean[bank];
          Tensor& rv = running_var[bank];
          rm[ch] = (1.0f - momentum) * rm[ch] +
                   momentum * static_cast<float>(mean);
          rv[ch] = (1.0f - momentum) * rv[ch] +
                   momentum * static_cast<float>(unbiased);
        }
      } else {
        mean = running_mean[bank][ch];
        var = running_var[bank][ch];
      }
      const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
      inv_std[ch] = is;
      const float g = gamma[ch], b = beta[ch], mu = static_cast<float>(mean);
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t off = (i * c + ch) * plane;
        for (std::int64_t j = 0; j < plane; ++j) {
          xhat[off + j] = (x[off + j] - mu) * is;
          out[off + j] = g * xhat[off + j] + b;
        }
      }
    }
    return out;
  }

  Tensor backward(const Tensor& go, bool param_grads) {
    const std::int64_t n = go.dim(0), c = go.dim(1),
                       plane = go.dim(2) * go.dim(3);
    const std::int64_t count = n * plane;
    Tensor gi(go.shape());
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double sum_go = 0.0, sum_go_xhat = 0.0;
      for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < plane; ++j) {
          const std::int64_t k = (i * c + ch) * plane + j;
          sum_go += go[k];
          sum_go_xhat += static_cast<double>(go[k]) * xhat[k];
        }
      if (param_grads) {
        dgamma[ch] += static_cast<float>(sum_go_xhat);
        dbeta[ch] += static_cast<float>(sum_go);
      }
      const float kc = train ? gamma[ch] * inv_std[ch] /
                                   static_cast<float>(count)
                             : gamma[ch] * inv_std[ch];
      for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < plane; ++j) {
          const std::int64_t k = (i * c + ch) * plane + j;
          gi[k] = train ? kc * (static_cast<float>(count) * go[k] -
                                static_cast<float>(sum_go) -
                                xhat[k] * static_cast<float>(sum_go_xhat))
                        : kc * go[k];
        }
    }
    return gi;
  }
};

/// Channel counts, plane sides and batch sizes the kernels must agree on:
/// partial channel blocks (3, 12), planes off a multiple of 8 (1, 4, 9) and
/// a 16-wide plane tail.
constexpr std::int64_t kParityChannels[] = {3, 8, 12, 32, 64};
constexpr std::int64_t kParitySides[] = {1, 2, 3, 4, 8, 16};
constexpr std::int64_t kParityBatches[] = {1, 5, 32};

TEST(NormActPoolParity, BatchNormMatchesScalarOracle) {
  Rng rng(40);
  int shape = 0;
  for (const std::int64_t c : kParityChannels)
    for (const std::int64_t side : kParitySides)
      for (const std::int64_t n : kParityBatches) {
        ++shape;
        Tensor x = Tensor::randn({n, c, side, side}, rng, 2.0f);
        x.add_scalar_(0.5f);
        sprinkle_specials(x, rng);
        Tensor go = Tensor::randn(x.shape(), rng);
        sprinkle_specials(go, rng);
        for (const bool train : {true, false})
          for (const bool scoped : {false, true}) {
            const bool track = (shape + scoped) % 2 == 0;
            const int bank = (shape / 2 + train) % 2;
            nn::BatchNorm2d bn(c);
            for (auto* t : {bn.parameters()[0], bn.parameters()[1],
                            bn.gradients()[0], bn.gradients()[1],
                            &bn.running_mean(0), &bn.running_mean(1)})
              *t = Tensor::randn({c}, rng);
            for (const int b : {0, 1})
              bn.running_var(b) = Tensor::rand_uniform({c}, rng, 0.1f, 3.0f);
            bn.set_track_stats(track);
            bn.use_bank(bank);
            BnOracle oracle(bn);
            const std::string what =
                "c=" + std::to_string(c) + " side=" + std::to_string(side) +
                " n=" + std::to_string(n) + " train=" + std::to_string(train) +
                " scoped=" + std::to_string(scoped) +
                " track=" + std::to_string(track) +
                " bank=" + std::to_string(bank);
            const Tensor want_y = oracle.forward(x, train, track, bank);
            EXPECT_TRUE(bytes_equal(bn.forward(x, train), want_y))
                << what << " forward";
            for (const int b : {0, 1}) {
              EXPECT_TRUE(bytes_equal(bn.running_mean(b),
                                      oracle.running_mean[b]))
                  << what << " running mean, bank " << b;
              EXPECT_TRUE(bytes_equal(bn.running_var(b), oracle.running_var[b]))
                  << what << " running var, bank " << b;
            }
            std::optional<compute::InputGradScope> scope;
            if (scoped) scope.emplace();
            const Tensor want_gi = oracle.backward(go, !scoped);
            EXPECT_TRUE(bytes_equal(bn.backward(go), want_gi))
                << what << " backward";
            EXPECT_TRUE(bytes_equal(*bn.gradients()[0], oracle.dgamma))
                << what << " dgamma";
            EXPECT_TRUE(bytes_equal(*bn.gradients()[1], oracle.dbeta))
                << what << " dbeta";
          }
      }
}

TEST(NormActPoolParity, ReluMatchesScalarOracle) {
  Rng rng(41);
  for (const std::int64_t c : kParityChannels)
    for (const std::int64_t side : kParitySides)
      for (const std::int64_t n : kParityBatches) {
        Tensor x = Tensor::randn({n, c, side, side}, rng);
        sprinkle_specials(x, rng);
        Tensor go = Tensor::randn(x.shape(), rng);
        sprinkle_specials(go, rng);
        Tensor want_y(x.shape()), want_gi(x.shape());
        for (std::int64_t i = 0; i < x.numel(); ++i) {
          const bool pos = x[i] > 0.0f;
          want_y[i] = pos ? x[i] : 0.0f;
          want_gi[i] = go[i] * (pos ? 1.0f : 0.0f);
        }
        nn::ReLU relu;
        const std::string what = "shape " + x.shape_str();
        EXPECT_TRUE(bytes_equal(relu.forward(x, true), want_y))
            << what << " forward";
        EXPECT_TRUE(bytes_equal(relu.backward(go), want_gi))
            << what << " backward";
      }
}

/// The max-pool loop with each window's index seeded at its first tap:
/// out and the flat input index of every output.
Tensor max_pool_oracle(const Tensor& x, std::int64_t k, std::int64_t s,
                       std::vector<std::int64_t>& argmax) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h - k) / s + 1, ow = (w - k) / s + 1;
  Tensor out({n, c, oh, ow});
  argmax.assign(static_cast<std::size_t>(out.numel()), 0);
  std::int64_t oi = 0;
  for (std::int64_t p = 0; p < n * c; ++p)
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t x2 = 0; x2 < ow; ++x2, ++oi) {
        float best = -kInf;
        std::int64_t best_idx = p * h * w + y * s * w + x2 * s;
        for (std::int64_t ky = 0; ky < k; ++ky)
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t idx = p * h * w + (y * s + ky) * w + x2 * s + kx;
            if (x[idx] > best) {
              best = x[idx];
              best_idx = idx;
            }
          }
        out[oi] = best;
        argmax[static_cast<std::size_t>(oi)] = best_idx;
      }
  return out;
}

TEST(NormActPoolParity, MaxPoolMatchesScalarOracle) {
  Rng rng(42);
  // 2x2/2 planes of up to 16 outputs a row take the vector path (32x32 and
  // 33x31 load a second vector per row); 34 wide (17 outputs), the other
  // windows and strides take the scalar loop.
  const std::pair<std::int64_t, std::int64_t> planes[] = {
      {2, 2}, {4, 4}, {8, 8}, {16, 16}, {5, 5}, {7, 9},
      {34, 34}, {32, 32}, {33, 31}, {3, 34}};
  const std::pair<std::int64_t, std::int64_t> windows[] = {
      {2, 2}, {3, 2}, {2, 1}, {3, 3}};
  for (const auto& [h, w] : planes)
    for (const auto& [k, s] : windows)
      for (const std::int64_t c : {3, 8})
        for (const std::int64_t n : {1, 5}) {
          if (h < k || w < k) continue;
          // Values on a coarse grid tie often; +0/-0 tie too.
          Tensor x({n, c, h, w});
          for (auto& v : x.span())
            v = std::round(rng.gaussian(0.0f, 2.0f)) / 2.0f;
          for (std::int64_t i = 0; i < x.numel(); i += 7) x[i] = -0.0f;
          for (std::int64_t i = 3; i < x.numel(); i += 11) x[i] = kNaN;
          for (std::int64_t i = 5; i < x.numel(); i += 13) x[i] = -kInf;
          for (std::int64_t i = 1; i < x.numel(); i += 17) x[i] = kDenormal;
          // A whole window of -inf and one of NaN in the first plane.
          for (std::int64_t ky = 0; ky < k; ++ky)
            for (std::int64_t kx = 0; kx < k; ++kx) {
              x[ky * w + kx] = -kInf;
              if (h >= 2 * k && w >= 2 * k) x[(k + ky) * w + k + kx] = kNaN;
            }
          std::vector<std::int64_t> argmax;
          const Tensor want_y = max_pool_oracle(x, k, s, argmax);
          // Distinct gradients, so grad_in pins every argmax.
          Tensor go(want_y.shape());
          for (std::int64_t i = 0; i < go.numel(); ++i)
            go[i] = static_cast<float>(i + 1);
          Tensor want_gi(x.shape());
          for (std::int64_t i = 0; i < go.numel(); ++i)
            want_gi[argmax[static_cast<std::size_t>(i)]] += go[i];
          nn::MaxPool2d pool(k, s);
          const std::string what = "shape " + x.shape_str() + " window " +
                                   std::to_string(k) + "/" + std::to_string(s);
          EXPECT_TRUE(bytes_equal(pool.forward(x, true), want_y))
              << what << " forward";
          EXPECT_TRUE(bytes_equal(pool.backward(go), want_gi))
              << what << " backward";
        }
}

TEST(MaxPool2d, TiledBackwardMatchesTheScatter) {
  // When 2x2/2 windows tile the plane, backward writes every input pixel
  // once: 0.0f + go at the argmax, as the zero-fill and scatter-add gives
  // it (-0 becomes +0, NaN and denormals pass), and 0 elsewhere.
  Rng rng(45);
  for (const auto& [h, w] : {std::pair<std::int64_t, std::int64_t>{2, 2},
                             {4, 6},
                             {8, 8},
                             {32, 34}}) {
    Tensor x({3, 5, h, w});
    for (auto& v : x.span()) v = std::round(rng.gaussian(0.0f, 2.0f)) / 2.0f;
    nn::MaxPool2d pool(2);
    const Tensor y = pool.forward(x, true);
    std::vector<std::int64_t> argmax;
    max_pool_oracle(x, 2, 2, argmax);
    Tensor go(y.shape());
    const float specials[] = {-0.0f, 0.0f, kNaN, kDenormal, -kInf, -1.5f};
    for (std::int64_t i = 0; i < go.numel(); ++i)
      go[i] = i % 3 == 0 ? specials[(i / 3) % 6] : static_cast<float>(i);
    Tensor want(x.shape());
    for (std::int64_t i = 0; i < go.numel(); ++i)
      want[argmax[static_cast<std::size_t>(i)]] += go[i];
    EXPECT_TRUE(bytes_equal(pool.backward(go), want)) << x.shape_str();
  }
}

TEST(MaxPool2d, BackwardRejectsAGradientOfTheWrongSize) {
  // A larger grad_out would index past the cached argmax.
  nn::MaxPool2d pool(2);
  const Tensor y = pool.forward(Tensor({1, 2, 4, 4}), true);
  EXPECT_THROW(pool.backward(Tensor({1, 2, 2, 3})), std::invalid_argument);
  EXPECT_THROW(pool.backward(Tensor({2, 2, 2, 2})), std::invalid_argument);
  EXPECT_EQ(pool.backward(Tensor(y.shape())).shape(), (std::vector<std::int64_t>{1, 2, 4, 4}));
}

TEST(MaxPool2d, WindowWithoutAMaximumRoutesGradientIntoItself) {
  // A window whose taps are all -inf or NaN never beats the initial -inf;
  // its gradient must stay inside the window (on its first tap), not land
  // on pixel (0, 0) of the plane. 4x4 takes the vector path, 6 wide with a
  // 2/1 window the scalar loop.
  for (const float fill : {-kInf, kNaN}) {
    for (const auto& [w, k, s] : {std::tuple<std::int64_t, std::int64_t,
                                             std::int64_t>{4, 2, 2},
                                  {6, 2, 1}}) {
      Tensor x({1, 1, 4, w});
      for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
      const std::int64_t y0 = 2, x0 = 2;  // the window at rows/cols 2-3
      for (std::int64_t ky = 0; ky < 2; ++ky)
        for (std::int64_t kx = 0; kx < 2; ++kx)
          x[(y0 + ky) * w + x0 + kx] = fill;
      nn::MaxPool2d pool(k, s);
      const Tensor y = pool.forward(x, true);
      const std::int64_t ow = y.dim(3);
      const std::int64_t cell = (y0 / s) * ow + x0 / s;
      EXPECT_EQ(y[cell], -kInf);
      Tensor go(y.shape());
      go[cell] = 1.0f;
      const Tensor gi = pool.backward(go);
      EXPECT_EQ(gi[0], 0.0f) << "w=" << w;
      EXPECT_EQ(gi[y0 * w + x0], 1.0f) << "w=" << w;
    }
  }
}

TEST(UninitOutputs, PoisonedArenaGivesTheBytesOfAFreshScope) {
  // Outputs a kernel overwrites in full (Conv2d forward; BatchNorm xhat,
  // out and grad_in; ReLU mask, out and grad_in; max-pool out, and its
  // grad_in when 2x2/2 windows tile the plane) are not
  // zero-filled. Run every layer's forward and backward over an arena slab
  // whose bytes are NaN and compare with a fresh scope.
  Rng rng(43);
  const Tensor x = Tensor::randn({5, 8, 8, 8}, rng);
  const auto run = [&x](bool poison, bool scoped) {
    const mem::ClientMemScope mem_scope(mem::Budget{16 << 20});
    if (poison) {
      // Freed at once: the bump pointer rewinds over it, so the layers'
      // allocations land on the NaN bytes.
      Tensor(std::vector<std::int64_t>{1 << 20}).fill(kNaN);
      const Tensor probe({64}, Tensor::Uninit{});
      EXPECT_TRUE(std::isnan(probe[0]));
      EXPECT_EQ(mem::current_live_bytes(), 64 * 4);
    }
    std::optional<compute::InputGradScope> grad_scope;
    if (scoped) grad_scope.emplace();
    Rng init(44);
    nn::Conv2d conv(8, 8, 3, 1, 1, init);
    nn::BatchNorm2d bn_train(8), bn_eval(8);
    nn::ReLU relu;
    nn::MaxPool2d pool(2);
    std::vector<Tensor> outs;
    const std::pair<nn::Layer*, bool> layers[] = {
        {&conv, true}, {&bn_train, true}, {&bn_eval, false},
        {&relu, true}, {&pool, true}};
    for (const auto& [layer, train] : layers) {
      const Tensor y = layer->forward(x, train);
      Tensor go(y.shape());
      for (std::int64_t i = 0; i < go.numel(); ++i)
        go[i] = 0.01f * static_cast<float>(i % 97) - 0.4f;
      outs.push_back(y);
      outs.push_back(layer->backward(go));
    }
    return outs;
  };
  for (const bool scoped : {false, true}) {
    const std::vector<Tensor> fresh = run(false, scoped);
    const std::vector<Tensor> poisoned = run(true, scoped);
    ASSERT_EQ(fresh.size(), poisoned.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
      EXPECT_TRUE(bytes_equal(poisoned[i], fresh[i]))
          << "output " << i << " scoped=" << scoped;
  }
}

TEST(UninitOutputs, TrackSameBytesAsZeroedTensors) {
  const mem::ClientMemScope scope(mem::Budget{0});
  const Tensor zeroed({3, 5, 7});
  const std::int64_t one = mem::current_live_bytes();
  const Tensor uninit({3, 5, 7}, Tensor::Uninit{});
  EXPECT_EQ(mem::current_live_bytes(), 2 * one);
  EXPECT_EQ(uninit.shape(), zeroed.shape());
  EXPECT_EQ(uninit.numel(), zeroed.numel());
}

}  // namespace
}  // namespace fp
