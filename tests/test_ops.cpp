#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/parallel.hpp"
#include "tensor/ops.hpp"

namespace fp {
namespace {

void naive_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n, std::int64_t k,
                float alpha, const float* a, const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
}

class GemmTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto [ta, tb] = GetParam();
  Rng rng(11);
  const std::int64_t m = 7, n = 5, k = 9;
  const Tensor a = Tensor::randn({ta ? k : m, ta ? m : k}, rng);
  const Tensor b = Tensor::randn({tb ? n : k, tb ? k : n}, rng);
  Tensor c = Tensor::randn({m, n}, rng);
  Tensor expect = c;
  naive_gemm(ta, tb, m, n, k, 1.3f, a.data(), b.data(), 0.7f, expect.data());
  gemm(ta, tb, m, n, k, 1.3f, a.data(), b.data(), 0.7f, c.data());
  for (std::int64_t i = 0; i < m * n; ++i)
    EXPECT_NEAR(c[i], expect[i], 1e-3f) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(Gemm, BetaZeroClearsGarbage) {
  const std::int64_t m = 2, n = 2, k = 2;
  const float a[4] = {1, 0, 0, 1};
  const float b[4] = {5, 6, 7, 8};
  float c[4] = {NAN, NAN, NAN, NAN};
  gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c[0], 5.0f);
  EXPECT_FLOAT_EQ(c[3], 8.0f);
}

TEST(Im2Col, IdentityKernelGeometry) {
  // 1x1 kernel, stride 1: columns are just the image rows.
  Conv2dGeometry g{2, 1, 1, 1, 0, 3, 3};
  Rng rng(12);
  const Tensor img = Tensor::randn({2, 3, 3}, rng);
  Tensor cols({g.col_rows(), g.col_cols()});
  im2col(g, img.data(), 1, cols.data());
  for (std::int64_t i = 0; i < img.numel(); ++i) EXPECT_FLOAT_EQ(cols[i], img[i]);
}

TEST(Im2Col, PaddingProducesZeros) {
  Conv2dGeometry g{1, 1, 3, 1, 1, 2, 2};
  const Tensor img = Tensor::ones({1, 2, 2});
  Tensor cols({g.col_rows(), g.col_cols()});
  im2col(g, img.data(), 1, cols.data());
  // First row of the column matrix corresponds to kernel offset (0,0): the
  // top-left tap reads padding for output (0,0).
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
  // Center tap (kh=1, kw=1) reads the image itself.
  const std::int64_t center_row = 1 * 3 + 1;
  for (std::int64_t j = 0; j < g.col_cols(); ++j)
    EXPECT_FLOAT_EQ(cols[center_row * g.col_cols() + j], 1.0f);
}

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y (adjointness).
  Conv2dGeometry g{3, 4, 3, 2, 1, 5, 5};
  Rng rng(13);
  const Tensor x = Tensor::randn({3, 5, 5}, rng);
  const Tensor y = Tensor::randn({g.col_rows(), g.col_cols()}, rng);
  Tensor cols({g.col_rows(), g.col_cols()});
  im2col(g, x.data(), 1, cols.data());
  Tensor back({3, 5, 5});
  col2im(g, y.data(), 1, back.data());
  EXPECT_NEAR(cols.dot(y), x.dot(back), 1e-2f);
}

/// Gaussian values salted with -0.0, +-Inf and NaN. The NaN is the one the
/// hardware makes for Inf - Inf, so every NaN a fold can meet has one bit
/// pattern and operand order cannot pick between payloads.
std::vector<float> special_values(std::int64_t count, Rng& rng) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {-0.0f, inf, -inf, inf - inf};
  std::vector<float> v(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = i % 7 == 3 ? specials[(i / 7) % 4] : rng.gaussian();
  return v;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Batched unfold and fold against the seed's scalar loops, byte for byte,
/// over every kernel/stride/padding combination whose window fits, ragged
/// and degenerate planes, and padding >= kernel (all-zero unfold rows). The
/// fold accumulates into a non-zero image, so the tap order is pinned too.
TEST(Im2Col, BatchedMatchesReferenceBytes) {
  const std::int64_t channels = 2;
  const std::int64_t planes[][2] = {{1, 1}, {2, 3}, {5, 7}, {8, 8}};
  const int saved_threads = core::num_threads();
  core::set_num_threads(4);
  Rng rng(21);
  int checked = 0;
  for (const std::int64_t k : {1, 2, 3, 5, 7})
    for (const std::int64_t s : {1, 2, 3})
      for (std::int64_t p = 0; p <= 3; ++p)
        for (const auto& hw : planes) {
          if (hw[0] + 2 * p < k || hw[1] + 2 * p < k) continue;
          const Conv2dGeometry g{channels, 1, k, s, p, hw[0], hw[1]};
          for (const std::int64_t n : {1, 3, 32}) {
            const std::int64_t image_elems = n * channels * hw[0] * hw[1];
            const std::int64_t col_elems = g.col_rows() * n * g.col_cols();
            const auto x = special_values(image_elems, rng);
            std::vector<float> want(col_elems, 1.0f), got(col_elems, 2.0f);
            im2col_reference(g, x.data(), n, want.data());
            im2col(g, x.data(), n, got.data());
            ASSERT_TRUE(same_bytes(want, got))
                << "unfold k=" << k << " s=" << s << " p=" << p << " "
                << hw[0] << "x" << hw[1] << " n=" << n;

            const auto y = special_values(col_elems, rng);
            std::vector<float> want_img = special_values(image_elems, rng);
            std::vector<float> got_img = want_img;
            col2im_reference(g, y.data(), n, want_img.data());
            col2im(g, y.data(), n, got_img.data());
            ASSERT_TRUE(same_bytes(want_img, got_img))
                << "fold k=" << k << " s=" << s << " p=" << p << " "
                << hw[0] << "x" << hw[1] << " n=" << n;
            ++checked;
          }
        }
  core::set_num_threads(saved_threads);
  EXPECT_GT(checked, 300);
}

/// The batched kernels split their work over the pool: one thread and four
/// must give the same bytes on a TinyVGG-sized layer.
TEST(Im2Col, BatchedIsThreadCountInvariant) {
  const Conv2dGeometry g{8, 8, 3, 1, 1, 16, 16};
  const std::int64_t n = 32;
  Rng rng(22);
  const auto x = special_values(n * 8 * 16 * 16, rng);
  const auto y = special_values(g.col_rows() * n * g.col_cols(), rng);
  const int saved_threads = core::num_threads();
  std::vector<float> cols[2], img[2];
  const int threads[2] = {1, 4};
  for (int r = 0; r < 2; ++r) {
    core::set_num_threads(threads[r]);
    cols[r].assign(y.size(), 0.0f);
    img[r].assign(x.size(), 0.0f);
    im2col(g, x.data(), n, cols[r].data());
    col2im(g, y.data(), n, img[r].data());
  }
  core::set_num_threads(saved_threads);
  EXPECT_TRUE(same_bytes(cols[0], cols[1]));
  EXPECT_TRUE(same_bytes(img[0], img[1]));
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(14);
  const Tensor logits = Tensor::randn({4, 6}, rng, 3.0f);
  const Tensor p = softmax(logits);
  for (std::int64_t r = 0; r < 4; ++r) {
    double s = 0;
    for (std::int64_t c = 0; c < 6; ++c) {
      EXPECT_GT(p[r * 6 + c], 0.0f);
      s += p[r * 6 + c];
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableForHugeLogits) {
  const Tensor logits = Tensor::from_vector({1, 3}, {1000.0f, 1001.0f, 999.0f});
  const Tensor p = softmax(logits);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_GT(p[1], p[0]);
}

TEST(CrossEntropy, MatchesManualComputation) {
  const Tensor logits = Tensor::from_vector({2, 3}, {1, 2, 3, 0, 0, 0});
  const std::vector<std::int64_t> y{2, 1};
  // row0: -log softmax_2 ; row1: -log(1/3)
  const double l0 = -std::log(std::exp(3.0) / (std::exp(1.0) + std::exp(2.0) + std::exp(3.0)));
  const double l1 = std::log(3.0);
  EXPECT_NEAR(cross_entropy(logits, y), (l0 + l1) / 2.0, 1e-5);
}

TEST(CrossEntropyGrad, MatchesFiniteDifferences) {
  Rng rng(15);
  Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<std::int64_t> y{0, 3, 4};
  const Tensor g = cross_entropy_grad(logits, y);
  const float h = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + h;
    const float lp = cross_entropy(logits, y);
    logits[i] = orig - h;
    const float lm = cross_entropy(logits, y);
    logits[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * h), g[i], 2e-3f);
  }
}

TEST(SoftCrossEntropy, EqualsHardCeOnOnehot) {
  Rng rng(16);
  const Tensor logits = Tensor::randn({2, 4}, rng);
  const std::vector<std::int64_t> y{1, 3};
  Tensor onehot({2, 4});
  onehot[0 * 4 + 1] = 1.0f;
  onehot[1 * 4 + 3] = 1.0f;
  EXPECT_NEAR(soft_cross_entropy(logits, onehot), cross_entropy(logits, y), 1e-5);
}

TEST(SoftCrossEntropyGrad, MatchesFiniteDifferences) {
  Rng rng(17);
  Tensor logits = Tensor::randn({2, 4}, rng);
  Tensor targets = softmax(Tensor::randn({2, 4}, rng));
  const Tensor g = soft_cross_entropy_grad(logits, targets);
  const float h = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + h;
    const float lp = soft_cross_entropy(logits, targets);
    logits[i] = orig - h;
    const float lm = soft_cross_entropy(logits, targets);
    logits[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * h), g[i], 2e-3f);
  }
}

TEST(DlrLoss, NegativeWhenConfidentlyCorrect) {
  const Tensor logits = Tensor::from_vector({1, 4}, {10, 0, 1, 2});
  EXPECT_LT(dlr_loss(logits, {0}), 0.0f);
}

TEST(DlrLoss, PositiveWhenMisclassified) {
  const Tensor logits = Tensor::from_vector({1, 4}, {0, 10, 1, 2});
  EXPECT_GT(dlr_loss(logits, {0}), 0.0f);
}

TEST(DlrLossGrad, MatchesFiniteDifferences) {
  Rng rng(18);
  Tensor logits = Tensor::randn({3, 6}, rng, 2.0f);
  const std::vector<std::int64_t> y{1, 0, 5};
  const Tensor g = dlr_loss_grad(logits, y);
  const float h = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + h;
    const float lp = dlr_loss(logits, y);
    logits[i] = orig - h;
    const float lm = dlr_loss(logits, y);
    logits[i] = orig;
    // DLR is piecewise-smooth; h must not cross an argsort boundary. The
    // random logits have gaps >> h with overwhelming probability.
    EXPECT_NEAR((lp - lm) / (2 * h), g[i], 5e-3f) << "coord " << i;
  }
}

TEST(Accuracy, CountsMatchesOnly) {
  const Tensor logits = Tensor::from_vector({3, 2}, {1, 0, 0, 1, 1, 0});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1, 1}), 2.0 / 3.0);
}

}  // namespace
}  // namespace fp
