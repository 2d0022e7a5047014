// The batched Conv2d path (im2col + one GEMM per direction per sample tile)
// against the seed's per-sample loop and, byte for byte, against a
// whole-batch im2col/gemm/col2im oracle, plus finite-difference grad checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "grad_check.hpp"
#include "nn/conv.hpp"
#include "tensor/compute_mode.hpp"
#include "tensor/ops.hpp"

namespace fp {
namespace {

/// The seed's per-sample forward: im2col + gemm_reference per image + bias.
Tensor per_sample_forward(nn::Conv2d& conv, const Tensor& x) {
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  Conv2dGeometry g{conv.in_channels(), conv.out_channels(), conv.kernel(),
                   conv.stride(),      conv.padding(),      h,
                   w};
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  Tensor out({n, conv.out_channels(), oh, ow});
  Tensor cols({g.col_rows(), g.col_cols()});
  const std::int64_t in_plane = conv.in_channels() * h * w;
  const std::int64_t out_plane = conv.out_channels() * oh * ow;
  for (std::int64_t i = 0; i < n; ++i) {
    im2col_reference(g, x.data() + i * in_plane, 1, cols.data());
    gemm_reference(false, false, conv.out_channels(), g.col_cols(), g.col_rows(),
                   1.0f, conv.weight().data(), cols.data(), 0.0f,
                   out.data() + i * out_plane);
    if (conv.has_bias()) {
      float* o = out.data() + i * out_plane;
      for (std::int64_t c = 0; c < conv.out_channels(); ++c)
        for (std::int64_t p = 0; p < oh * ow; ++p)
          o[c * oh * ow + p] += conv.bias()[c];
    }
  }
  return out;
}

struct ConvCase {
  std::int64_t n, in_c, out_c, k, s, p, h, w;
  bool bias;
};

TEST(Conv2dBatched, ForwardMatchesPerSampleReference) {
  const ConvCase cases[] = {
      {1, 1, 1, 1, 1, 0, 4, 4, true},   {4, 3, 8, 3, 1, 1, 9, 9, true},
      {5, 2, 6, 3, 2, 1, 11, 7, true},  {3, 4, 5, 5, 2, 2, 12, 10, false},
      {8, 16, 16, 3, 1, 1, 16, 16, true},
  };
  for (const auto& c : cases) {
    Rng rng(31 + static_cast<std::uint64_t>(c.n * 7 + c.k));
    nn::Conv2d conv(c.in_c, c.out_c, c.k, c.s, c.p, rng, c.bias);
    const Tensor x = Tensor::randn({c.n, c.in_c, c.h, c.w}, rng);
    const Tensor ref = per_sample_forward(conv, x);
    const Tensor got = conv.forward(x, true);
    ASSERT_TRUE(got.same_shape(ref));
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      const float tol = 2e-4f * (std::abs(ref[i]) + 1.0f);
      ASSERT_NEAR(got[i], ref[i], tol)
          << "n=" << c.n << " k=" << c.k << " s=" << c.s << " at " << i;
    }
  }
}

TEST(Conv2dBatched, GradCheckStridePaddingBias) {
  const ConvCase cases[] = {
      {2, 2, 3, 3, 1, 1, 6, 6, true},
      {3, 2, 4, 3, 2, 1, 7, 5, true},
      {2, 3, 2, 5, 2, 2, 9, 9, false},
  };
  for (const auto& c : cases) {
    Rng rng(77 + static_cast<std::uint64_t>(c.out_c));
    nn::Conv2d conv(c.in_c, c.out_c, c.k, c.s, c.p, rng, c.bias);
    Tensor x = Tensor::randn({c.n, c.in_c, c.h, c.w}, rng);
    test::check_layer_gradients(conv, x);
  }
}

TEST(Conv2dBatched, BackwardAccumulatesAcrossCalls) {
  // grad_weight uses beta=1 GEMM accumulation; two backward passes must sum.
  Rng rng(5);
  nn::Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  const Tensor y = conv.forward(x, true);
  const Tensor g = Tensor::randn(y.shape(), rng);
  conv.zero_grad();
  conv.backward(g);
  const Tensor once = *conv.gradients()[0];
  conv.backward(g);
  const Tensor& twice = *conv.gradients()[0];
  for (std::int64_t i = 0; i < once.numel(); ++i) {
    const float tol = 1e-4f * (std::abs(once[i]) + 1.0f);
    ASSERT_NEAR(twice[i], 2.0f * once[i], tol);
  }
}

/// Whole-batch forward and backward of a conv, built from the kernels the
/// layer uses (one unfold, one GEMM per direction, one fold): the result
/// any sample tiling must reproduce exactly.
struct WholeBatchOracle {
  Tensor out, grad_in, grad_w, grad_b;

  WholeBatchOracle(nn::Conv2d& conv, const Tensor& x, const Tensor& go) {
    const std::int64_t n = x.dim(0);
    const Conv2dGeometry g{conv.in_channels(), conv.out_channels(),
                           conv.kernel(),      conv.stride(),
                           conv.padding(),     x.dim(2),
                           x.dim(3)};
    const std::int64_t oc = g.out_channels, rows = g.col_rows();
    const std::int64_t ohow = g.col_cols(), cols_n = n * ohow;
    Tensor cols({rows, cols_n}), io({oc, cols_n}), gcols({rows, cols_n});
    im2col(g, x.data(), n, cols.data());
    gemm(false, false, oc, cols_n, rows, 1.0f, conv.weight().data(),
         cols.data(), 0.0f, io.data());
    out = Tensor({n, oc, g.out_h(), g.out_w()});
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t c = 0; c < oc; ++c)
        for (std::int64_t p = 0; p < ohow; ++p)
          out[(i * oc + c) * ohow + p] =
              io[c * cols_n + i * ohow + p] +
              (conv.has_bias() ? conv.bias()[c] : 0.0f);
    grad_b = Tensor({oc});
    for (std::int64_t c = 0; c < oc; ++c) {
      double s = 0.0;
      for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t p = 0; p < ohow; ++p) {
          const float v = go[(i * oc + c) * ohow + p];
          io[c * cols_n + i * ohow + p] = v;
          s += v;
        }
      grad_b[c] += static_cast<float>(s);
    }
    grad_w = Tensor({oc, rows});
    gemm(false, true, oc, rows, cols_n, 1.0f, io.data(), cols.data(), 1.0f,
         grad_w.data());
    gemm(true, false, rows, cols_n, oc, 1.0f, conv.weight().data(), io.data(),
         0.0f, gcols.data());
    grad_in = Tensor(x.shape());
    col2im(g, gcols.data(), n, grad_in.data());
  }
};

void expect_same_bytes(const Tensor& got, const Tensor& want,
                       const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << what << " differs from the whole-batch oracle";
}

TEST(Conv2dBatched, SampleTilesMatchTheWholeBatchOracleByteForByte) {
  // {in_c, out_c, px}: a 16-px conv (3 samples of unfold per tile) and a
  // 4-px one (14 per tile), both 3x3 "same" with bias. One thread runs the
  // tiles in turn; four spread them over the pool.
  const std::int64_t geometries[][3] = {{8, 8, 16}, {32, 32, 4}};
  const int saved_threads = core::num_threads();
  for (const int threads : {1, 4}) {
    core::set_num_threads(threads);
    for (const auto& geo : geometries) {
      const std::int64_t in_c = geo[0], out_c = geo[1], px = geo[2];
      const std::int64_t sample_bytes =
          in_c * 9 * px * px * static_cast<std::int64_t>(sizeof(float));
      const std::int64_t tile = nn::Conv2d::kTileUnfoldBytes / sample_bytes;
      ASSERT_GE(tile, 2);
      const std::set<std::int64_t> batches{1, tile - 1, tile, tile + 1, 32};
      for (const std::int64_t n : batches) {
        Rng rng(400 + static_cast<std::uint64_t>(n * 3 + px));
        const Tensor x = Tensor::randn({n, in_c, px, px}, rng);
        const Tensor go = Tensor::randn({n, out_c, px, px}, rng);
        // Three runs on fresh layers with the same weights: scopes
        // {forward, backward} of {out, out}, {in, in}, and {in, out}. The last
        // is a scoped forward (tiles) followed by a full backward, which must
        // re-unfold the whole batch rather than read the last tile's columns.
        for (const int mode : {0, 1, 2}) {
          const std::string what =
              std::to_string(threads) + " threads " + std::to_string(in_c) +
              "->" + std::to_string(out_c) + "@" + std::to_string(px) +
              " n=" + std::to_string(n) + " mode " + std::to_string(mode);
          Rng wrng(7);
          nn::Conv2d conv(in_c, out_c, 3, 1, 1, wrng);
          for (auto& v : conv.bias().span()) v = wrng.uniform(-1.0f, 1.0f);
          const WholeBatchOracle want(conv, x, go);
          conv.zero_grad();
          Tensor out, grad_in;
          {
            std::optional<compute::InputGradScope> scope;
            if (mode != 0) scope.emplace();
            out = conv.forward(x, false);
          }
          {
            std::optional<compute::InputGradScope> scope;
            if (mode == 1) scope.emplace();
            grad_in = conv.backward(go);
          }
          expect_same_bytes(out, want.out, what + " forward");
          expect_same_bytes(grad_in, want.grad_in, what + " grad_in");
          if (mode == 1) {
            // Input-gradient-only: the parameter gradients stay zero.
            for (const Tensor* grad : conv.gradients())
              for (const float v : grad->span()) ASSERT_EQ(v, 0.0f) << what;
          } else {
            expect_same_bytes(*conv.gradients()[0], want.grad_w,
                              what + " grad_W");
            expect_same_bytes(*conv.gradients()[1], want.grad_b,
                              what + " grad_b");
          }
        }
      }
    }
  }
  core::set_num_threads(saved_threads);
}

TEST(Conv2dBatched, EmptyBatchForwardsInAndOutOfTheScope) {
  // Zero samples make zero tiles, not a division by zero.
  Rng rng(3);
  nn::Conv2d conv(2, 3, 3, 1, 1, rng);
  for (const bool scoped : {false, true}) {
    std::optional<compute::InputGradScope> scope;
    if (scoped) scope.emplace();
    EXPECT_EQ(conv.forward(Tensor({0, 2, 5, 5}), false).shape_str(),
              "[0, 3, 5, 5]");
  }
}

/// Runs `fn`, which must throw std::invalid_argument whose message contains
/// every one of `parts`.
template <class Fn>
void expect_invalid(Fn&& fn, std::initializer_list<const char*> parts) {
  try {
    fn();
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    for (const char* part : parts)
      EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
          << "'" << part << "' missing from: " << e.what();
  }
}

TEST(Conv2dBatched, RejectsWindowsThatDoNotFit) {
  Rng rng(9);
  // A 3x3 window never fits an unpadded 2x2 input, at any stride; the extent
  // formula would truncate to 1 (stride 2) or 0 (stride 1) instead.
  for (const std::int64_t stride : {2, 1}) {
    nn::Conv2d conv(1, 1, 3, stride, 0, rng);
    expect_invalid([&] { conv.forward(Tensor({1, 1, 2, 2}), false); },
                   {"kernel 3", "padding 0", "[1, 1, 2, 2]"});
  }
  nn::Conv2d conv(1, 1, 3, 1, 0, rng);
  expect_invalid([&] { conv.forward(Tensor({1, 1, 1, 1}), true); },
                 {"Conv2d", "kernel 3", "[1, 1, 1, 1]"});
  // Padding makes the same input valid.
  nn::Conv2d padded(1, 1, 3, 1, 1, rng);
  EXPECT_EQ(padded.forward(Tensor({1, 1, 2, 2}), false).shape_str(),
            "[1, 1, 2, 2]");
  // Degenerate geometry is refused at construction.
  expect_invalid([&] { nn::Conv2d(1, 1, 3, 0, 1, rng); }, {"stride 0"});
  expect_invalid([&] { nn::Conv2d(1, 1, 0, 1, 0, rng); }, {"kernel 0"});
  expect_invalid([&] { nn::Conv2d(1, 1, 3, 1, -1, rng); }, {"padding -1"});
}

}  // namespace
}  // namespace fp
