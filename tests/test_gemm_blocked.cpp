// Parity and determinism tests for the blocked GEMM (tensor/gemm.cpp)
// against the seed's reference loops (gemm_reference).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "core/parallel.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace fp {
namespace {

struct GemmCase {
  std::int64_t m, n, k;
  float alpha, beta;
};

void expect_matches_reference(bool ta, bool tb, const GemmCase& gc) {
  Rng rng(0xfeed + static_cast<std::uint64_t>(gc.m * 131 + gc.n * 17 + gc.k));
  const Tensor a = Tensor::randn({ta ? gc.k : gc.m, ta ? gc.m : gc.k}, rng);
  const Tensor b = Tensor::randn({tb ? gc.n : gc.k, tb ? gc.k : gc.n}, rng);
  const Tensor c0 = Tensor::randn({gc.m, gc.n}, rng);

  Tensor c_ref = c0, c_blk = c0;
  gemm_reference(ta, tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), b.data(), gc.beta,
                 c_ref.data());
  gemm(ta, tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), b.data(), gc.beta,
       c_blk.data());
  for (std::int64_t i = 0; i < gc.m * gc.n; ++i) {
    const float tol = 5e-4f * (std::abs(c_ref[i]) + 1.0f);
    ASSERT_NEAR(c_blk[i], c_ref[i], tol)
        << "ta=" << ta << " tb=" << tb << " m=" << gc.m << " n=" << gc.n
        << " k=" << gc.k << " alpha=" << gc.alpha << " beta=" << gc.beta
        << " at " << i;
  }
}

class BlockedGemmTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(BlockedGemmTest, MatchesReferenceOddSizesAlphaBeta) {
  const auto [ta, tb] = GetParam();
  // Sizes straddle every blocking boundary: single elements, partial
  // microkernel tiles, exact tile multiples, partial KC panels, and shapes
  // wider than they are tall (the batched-conv case).
  const GemmCase cases[] = {
      {1, 1, 1, 1.0f, 0.0f},      {3, 5, 7, 1.0f, 0.0f},
      {6, 16, 32, 0.5f, 1.0f},    {14, 32, 176, 1.0f, 0.0f},
      {7, 17, 19, 2.0f, -0.5f},   {13, 33, 65, 1.0f, 1.0f},
      {70, 100, 200, 1.0f, 0.0f}, {33, 257, 100, 0.5f, 0.25f},
      {5, 300, 9, 1.0f, 0.0f},    {130, 7, 181, 1.0f, 2.0f},
  };
  for (const auto& gc : cases) expect_matches_reference(ta, tb, gc);
}

TEST_P(BlockedGemmTest, MatchesReferenceOnConvShapes) {
  // The conv workloads' M values (C_out, and C_in*9 for the input-gradient
  // GEMMs; 27 is the one that keeps the 14-row tile), against N and K that
  // straddle the 48-wide tile, a KC panel and an NC panel.
  const auto [ta, tb] = GetParam();
  const float alpha_beta[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 0.25f}};
  int i = 0;
  for (const std::int64_t m : {8, 16, 27, 72, 144, 288})
    for (const std::int64_t n : {27, 72, 144, 2049})
      for (const std::int64_t k : {8, 16, 72, 177}) {
        const auto& ab = alpha_beta[i++ % 3];
        expect_matches_reference(ta, tb, {m, n, k, ab[0], ab[1]});
      }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, BlockedGemmTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(BlockedGemm, AlphaZeroOnlyScalesC) {
  Rng rng(7);
  const Tensor a = Tensor::randn({4, 4}, rng), b = Tensor::randn({4, 4}, rng);
  Tensor c = Tensor::randn({4, 4}, rng);
  const Tensor c0 = c;
  gemm(false, false, 4, 4, 4, 0.0f, a.data(), b.data(), 1.0f, c.data());
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(c[i], c0[i]);
}

TEST(BlockedGemm, PropagatesNanFromZeroTimesInf) {
  // The seed kernel's `if (av == 0) continue` silently dropped 0 * inf = NaN;
  // both the blocked kernel and the repaired reference must propagate it.
  const std::int64_t n = 4;
  Tensor a({n, n}), b({n, n});
  a.fill(0.0f);
  b.fill(1.0f);
  b[0] = std::numeric_limits<float>::infinity();
  for (auto* f : {&gemm, &gemm_reference}) {
    Tensor c({n, n});
    (*f)(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    EXPECT_TRUE(std::isnan(c[0])) << "0 * inf must contaminate C[0,0]";
  }
}

TEST(BlockedGemm, BetaZeroNeverReadsC) {
  // beta == 0 overwrites C: NaN and Inf already there must give the same
  // bytes as zeros, on either tile and with several KC panels.
  const float junk[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  for (const std::int64_t m : {8, 27}) {
    const std::int64_t n = 75, k = 400;
    Rng rng(3 + static_cast<std::uint64_t>(m));
    const Tensor a = Tensor::randn({m, k}, rng), b = Tensor::randn({k, n}, rng);
    Tensor zeros({m, n}), dirty({m, n});
    for (std::int64_t i = 0; i < m * n; ++i) dirty[i] = junk[i % 3];
    for (auto* c : {&zeros, &dirty})
      gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c->data());
    EXPECT_EQ(std::memcmp(zeros.data(), dirty.data(),
                          static_cast<std::size_t>(m * n) * sizeof(float)),
              0)
        << "m=" << m;
  }
}

TEST(BlockedGemm, BitIdenticalAcrossThreadCounts) {
  // A square-ish shape plus the conv shapes: forward (few rows, wide),
  // input gradient (shallow K) and weight gradient (deep K, beta = 1).
  const GemmCase cases[] = {{150, 170, 190, 1.0f, 0.0f},
                            {8, 8192, 72, 1.0f, 0.0f},
                            {72, 8192, 8, 1.0f, 0.0f},
                            {16, 144, 2048, 1.0f, 1.0f},
                            {288, 512, 32, 1.0f, 0.0f}};
  for (const auto& gc : cases) {
    Rng rng(99);
    const Tensor a = Tensor::randn({gc.m, gc.k}, rng);
    const Tensor b = Tensor::randn({gc.k, gc.n}, rng);
    const Tensor c0 = Tensor::randn({gc.m, gc.n}, rng);
    Tensor c1 = c0, c4 = c0;
    core::set_num_threads(1);
    gemm(false, false, gc.m, gc.n, gc.k, gc.alpha, a.data(), b.data(), gc.beta,
         c1.data());
    core::set_num_threads(4);
    gemm(false, false, gc.m, gc.n, gc.k, gc.alpha, a.data(), b.data(), gc.beta,
         c4.data());
    core::set_num_threads(1);
    for (std::int64_t i = 0; i < gc.m * gc.n; ++i)
      ASSERT_EQ(c1[i], c4[i]) << "thread count changed the summation order at "
                              << i << " (m=" << gc.m << " n=" << gc.n
                              << " k=" << gc.k << ")";
  }
}

}  // namespace
}  // namespace fp
