// Parity and determinism tests for the blocked GEMM (tensor/gemm.cpp)
// against the seed's reference loops (gemm_reference), and byte-for-byte
// against a scalar oracle of the blocked summation on FMA hosts.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

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

// The KC depth every GEMM kernel blocks K by, or 0 when this host's kernel
// does not fuse its multiply-adds (the portable fallback), so no fma oracle
// holds.
std::int64_t fused_kernel_kc() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512f") ||
      (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")))
    return 176;
#endif
  return 0;
}

/// C as the blocked kernel computes it: per KC panel one std::fma chain in
/// k order from +0, folded in as fma(alpha, acc, base), where base is 0 for
/// the first panel of a beta == 0 call and the running C otherwise.
std::vector<float> blocked_oracle(bool ta, bool tb, std::int64_t m,
                                  std::int64_t n, std::int64_t k, float alpha,
                                  const float* a, const float* b, float beta,
                                  const float* c0, std::int64_t kc) {
  std::vector<float> c(c0, c0 + m * n);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float cv = beta == 1.0f ? c[i * n + j] : c[i * n + j] * beta;
      for (std::int64_t pc = 0; pc < k; pc += kc) {
        float acc = 0.0f;
        for (std::int64_t p = pc; p < std::min(k, pc + kc); ++p)
          acc = std::fma(ta ? a[p * m + i] : a[i * k + p],
                         tb ? b[j * k + p] : b[p * n + j], acc);
        cv = std::fma(alpha, acc, beta == 0.0f && pc == 0 ? 0.0f : cv);
      }
      c[i * n + j] = cv;
    }
  return c;
}

class GemmOracleTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmOracleTest, BlockedSumIsByteExact) {
  const std::int64_t kc = fused_kernel_kc();
  if (kc == 0) GTEST_SKIP() << "the portable kernel does not fuse multiply-adds";
  const auto [ta, tb] = GetParam();
  // M on both sides of the in-place B cut-off (64 rows = 8 micro-rows of the
  // 8x48 tile, 72 = 9; 8 and 27 are 1 and 2 micro-rows), N with
  // n % 48 in {1, 17, 47} (and one N past the 48 * 43 column panel), K of
  // one, two and three KC panels.
  struct Shape {
    std::int64_t m, n, k;
  };
  std::vector<Shape> shapes;
  for (const std::int64_t m : {8, 27, 64, 72})
    for (const std::int64_t n : {49, 65, 95})
      for (const std::int64_t k : {8, 177, 400}) shapes.push_back({m, n, k});
  shapes.push_back({64, 48 * 43 + 17, 40});
  for (const Shape& sh : shapes)
    for (const float beta : {0.0f, 1.0f}) {
      Rng rng(0xb10c + static_cast<std::uint64_t>(sh.m * 7 + sh.n * 3 + sh.k));
      const Tensor a = Tensor::randn({sh.m * sh.k}, rng);
      const Tensor b = Tensor::randn({sh.k * sh.n}, rng);
      Tensor c = Tensor::randn({sh.m * sh.n}, rng);
      const std::vector<float> want =
          blocked_oracle(ta, tb, sh.m, sh.n, sh.k, 0.75f, a.data(), b.data(),
                         beta, c.data(), kc);
      gemm(ta, tb, sh.m, sh.n, sh.k, 0.75f, a.data(), b.data(), beta, c.data());
      ASSERT_EQ(std::memcmp(c.data(), want.data(), want.size() * sizeof(float)),
                0)
          << "ta=" << ta << " tb=" << tb << " m=" << sh.m << " n=" << sh.n
          << " k=" << sh.k << " beta=" << beta;
    }
}

TEST_P(GemmOracleTest, LastRowOfBEndsAtAGuardPage) {
  // B's last element is the last float before a PROT_NONE page, so any load
  // past the end of op(B)'s storage faults; the in-place ragged panel (m = 8,
  // n % 48 = 17) must read through lane masks.
  const auto [ta, tb] = GetParam();
  const std::int64_t m = 8, n = 65, k = 20;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t b_bytes = static_cast<std::size_t>(k * n) * sizeof(float);
  const std::size_t data_bytes = (b_bytes + page - 1) / page * page;
  void* region = mmap(nullptr, data_bytes + page, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  auto* base = static_cast<unsigned char*>(region);
  ASSERT_EQ(mprotect(base + data_bytes, page, PROT_NONE), 0);
  float* b = reinterpret_cast<float*>(base + data_bytes - b_bytes);
  Rng rng(41);
  const Tensor b_src = Tensor::randn({k * n}, rng);
  std::memcpy(b, b_src.data(), b_bytes);
  const Tensor a = Tensor::randn({m * k}, rng);
  Tensor c({m * n}), c_ref({m * n});
  gemm(ta, tb, m, n, k, 1.0f, a.data(), b, 0.0f, c.data());
  gemm_reference(ta, tb, m, n, k, 1.0f, a.data(), b_src.data(), 0.0f,
                 c_ref.data());
  for (std::int64_t i = 0; i < m * n; ++i)
    ASSERT_NEAR(c[i], c_ref[i], 5e-4f * (std::abs(c_ref[i]) + 1.0f)) << i;
  munmap(region, data_bytes + page);
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmOracleTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace fp
