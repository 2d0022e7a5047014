// The batched Conv2d path (whole-minibatch im2col + one GEMM per direction)
// against the seed's per-sample loop, plus finite-difference grad checks.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "grad_check.hpp"
#include "nn/conv.hpp"
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
