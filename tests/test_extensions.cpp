// Tests for the paper-§8 extensions: LoRA adapters, low-bit training
// accounting, and checkpoint I/O.
#include <gtest/gtest.h>

#include <cstdio>

#include "grad_check.hpp"
#include <fstream>

#include "models/zoo.hpp"
#include "nn/linear.hpp"
#include "nn/lora.hpp"
#include "nn/model_io.hpp"
#include "nn/optimizer.hpp"
#include "nn/quantize.hpp"
#include "sysmodel/cost_model.hpp"
#include "tensor/ops.hpp"

namespace fp {
namespace {

// ---- LoRA -------------------------------------------------------------------

TEST(LoRaLinear, StartsAsExactNoOp) {
  Rng rng(101);
  const Tensor w0 = Tensor::randn({4, 6}, rng);
  const Tensor bias = Tensor::randn({4}, rng);
  nn::LoRaLinear lora(w0, bias, 2, 4.0f, rng);
  nn::Linear dense(6, 4, rng);
  dense.weight() = w0;
  dense.bias() = bias;
  const Tensor x = Tensor::randn({3, 6}, rng);
  const Tensor ya = lora.forward(x, true);
  const Tensor yb = dense.forward(x, true);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_NEAR(ya[i], yb[i], 1e-5f);
}

TEST(LoRaLinear, GradientsMatchFiniteDifferences) {
  Rng rng(102);
  const Tensor w0 = Tensor::randn({5, 7}, rng);
  nn::LoRaLinear lora(w0, Tensor::randn({5}, rng), 3, 3.0f, rng);
  // Give B a non-zero value so both factor gradients are exercised.
  for (auto& v : lora.parameters()[1]->span()) v = rng.gaussian(0.0f, 0.3f);
  const Tensor x = Tensor::randn({4, 7}, rng);
  test::check_layer_gradients(lora, x);
}

TEST(LoRaLinear, MergedWeightMatchesForward) {
  Rng rng(103);
  const Tensor w0 = Tensor::randn({4, 5}, rng);
  nn::LoRaLinear lora(w0, Tensor({0}), 2, 2.0f, rng);
  for (auto& v : lora.parameters()[1]->span()) v = rng.gaussian();
  nn::Linear merged(5, 4, rng, /*bias=*/false);
  merged.weight() = lora.merged_weight();
  const Tensor x = Tensor::randn({2, 5}, rng);
  const Tensor ya = lora.forward(x, true);
  const Tensor yb = merged.forward(x, true);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_NEAR(ya[i], yb[i], 1e-4f);
}

TEST(LoRaLinear, TrainableStateShrinks) {
  Rng rng(104);
  nn::LoRaLinear lora(Tensor({64, 128}), Tensor({0}), 4, 4.0f, rng);
  EXPECT_EQ(lora.trainable_params(), 4 * (64 + 128));
  EXPECT_EQ(lora.dense_params(), 64 * 128);
  EXPECT_LT(lora.trainable_params() * 10, lora.dense_params());
  EXPECT_THROW(nn::LoRaLinear(Tensor({4, 4}), Tensor({0}), 5, 1.0f, rng),
               std::invalid_argument);
}

TEST(LoRaLinear, AdapterLearnsResidualTask) {
  // Frozen W0 is wrong for the task; the rank-1 adapter must fix it.
  Rng rng(105);
  nn::LoRaLinear lora(Tensor::zeros({1, 4}), Tensor({0}), 1, 1.0f, rng);
  // Bilinear factor training is sensitive to the step size: keep it small.
  nn::Sgd opt(lora.parameters(), lora.gradients(), {0.02f, 0.9f, 0.0f});
  const Tensor w_true = Tensor::from_vector({1, 4}, {2, -1, 0.5, 1});
  const Tensor x = Tensor::randn({32, 4}, rng);
  Tensor y_true({32, 1});
  for (int i = 0; i < 32; ++i)
    for (int j = 0; j < 4; ++j) y_true[i] += w_true[j] * x[i * 4 + j];
  float last = 0;
  for (int it = 0; it < 300; ++it) {
    const Tensor y = lora.forward(x, true);
    Tensor diff = y.sub(y_true);
    last = diff.dot(diff) / 32.0f;
    lora.zero_grad();
    diff.scale_(2.0f / 32.0f);
    lora.backward(diff);
    opt.step();
  }
  EXPECT_LT(last, 0.2f);  // rank-1 can represent the rank-1 target
}

// ---- fake quantization -------------------------------------------------------

TEST(Quantize, HighBitsIsIdentity) {
  Rng rng(106);
  const Tensor t = Tensor::randn({32}, rng);
  const Tensor q = nn::fake_quantize(t, 16);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(q[i], t[i]);
}

TEST(Quantize, ErrorWithinHalfStep) {
  Rng rng(107);
  const Tensor t = Tensor::randn({256}, rng, 3.0f);
  for (const int bits : {2, 4, 8}) {
    const Tensor q = nn::fake_quantize(t, bits);
    const float bound = nn::quantization_error_bound(t, bits);
    for (std::int64_t i = 0; i < t.numel(); ++i)
      EXPECT_LE(std::abs(q[i] - t[i]), bound * 1.0001f) << "bits=" << bits;
  }
}

TEST(Quantize, FewerBitsMoreError) {
  Rng rng(108);
  const Tensor t = Tensor::randn({512}, rng);
  double err2 = 0, err8 = 0;
  const Tensor q2 = nn::fake_quantize(t, 2), q8 = nn::fake_quantize(t, 8);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    err2 += std::abs(q2[i] - t[i]);
    err8 += std::abs(q8[i] - t[i]);
  }
  EXPECT_GT(err2, err8);
}

TEST(Quantize, LowBitMemoryComposesWithPartitioner) {
  const auto spec = models::vgg16_spec(32, 10);
  const auto fp32 =
      nn::low_bit_mem_bytes(spec, 0, spec.atoms.size(), 64, false, 32);
  const auto int8 =
      nn::low_bit_mem_bytes(spec, 0, spec.atoms.size(), 64, false, 8);
  const auto baseline =
      sys::module_train_mem_bytes(spec, 0, spec.atoms.size(), 64, false);
  EXPECT_EQ(fp32, baseline);  // 32-bit accounting must agree exactly
  EXPECT_LT(int8, baseline);
  // Gradients+momentum stay fp32, so the floor is 2/3 of the param term.
  EXPECT_GT(int8, baseline / 4);
}

// ---- checkpoint I/O ----------------------------------------------------------

TEST(ModelIo, RoundTripsBlob) {
  Rng rng(109);
  const std::string path = "/tmp/fp_ckpt_test.bin";
  nn::Linear lin(6, 3, rng);
  nn::save_layer_checkpoint(path, lin);
  nn::Linear lin2(6, 3, rng);
  nn::load_layer_checkpoint(path, lin2);
  EXPECT_EQ(nn::save_blob(lin2), nn::save_blob(lin));
  std::remove(path.c_str());
}

TEST(ModelIo, DetectsCorruption) {
  Rng rng(110);
  const std::string path = "/tmp/fp_ckpt_corrupt.bin";
  nn::ParamBlob blob{1.0f, 2.0f, 3.0f};
  nn::save_checkpoint(path, blob);
  // Flip a payload byte.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 4 + 4 + 8 + 1, SEEK_SET);
    std::fputc(0x7f, f);
    std::fclose(f);
  }
  EXPECT_THROW(nn::load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsMissingAndGarbageFiles) {
  EXPECT_THROW(nn::load_checkpoint("/tmp/fp_no_such_file.bin"), std::runtime_error);
  const std::string path = "/tmp/fp_ckpt_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  EXPECT_THROW(nn::load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fp
