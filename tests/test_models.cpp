#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>

#include "models/built_model.hpp"
#include "models/zoo.hpp"
#include "nn/norm.hpp"

namespace fp::models {
namespace {

TEST(Zoo, Vgg16ParamCountMatchesReference) {
  // VGG16 for 32x32 with a 512-512-10 classifier: conv stack 14.71M +
  // classifier ~0.53M (the canonical cifar-vgg16 configuration).
  const auto spec = vgg16_spec(32, 10);
  EXPECT_EQ(spec.atoms.size(), 16u);  // 13 conv atoms + 3 linear atoms
  EXPECT_NEAR(static_cast<double>(spec.total_params()) / 1e6, 15.2, 0.3);
}

TEST(Zoo, Resnet34StructureMatchesPaperTable8) {
  const auto spec = resnet34_spec(224, 256);
  // Conv1 + 16 basic blocks + classifier.
  EXPECT_EQ(spec.atoms.size(), 18u);
  EXPECT_EQ(spec.atoms[1].name, "BasicBlock 1");
  EXPECT_TRUE(spec.atoms[1].residual);
  EXPECT_TRUE(spec.atoms[1].shortcut.empty());   // stage-1 identity block
  EXPECT_FALSE(spec.atoms[4].shortcut.empty());  // stage-2 opener projects
  // ResNet34 has ~21.5M backbone params (classifier here is 512x256).
  EXPECT_NEAR(static_cast<double>(spec.total_params()) / 1e6, 21.4, 0.6);
}

TEST(Zoo, VggSpecShapesChainCorrectly) {
  const auto spec = vgg16_spec(32, 10);
  const auto feat = spec.shape_before(13);  // after all conv atoms
  EXPECT_EQ(feat.c, 512);
  EXPECT_EQ(feat.h, 1);
  EXPECT_EQ(feat.w, 1);
}

TEST(Zoo, FamiliesAreOrderedBySize) {
  EXPECT_LT(cnn3_spec().total_params(), vgg11_spec().total_params());
  EXPECT_LT(vgg11_spec().total_params(), vgg13_spec().total_params());
  EXPECT_LT(vgg13_spec().total_params(), vgg16_spec().total_params());
  EXPECT_LT(resnet10_spec().total_params(), resnet18_spec().total_params());
  EXPECT_LT(resnet18_spec().total_params(), resnet34_spec().total_params());
  EXPECT_LT(cnn4_spec().total_params(), resnet10_spec().total_params());
}

TEST(Zoo, TinyModelsScaleWithWidth) {
  EXPECT_LT(tiny_vgg_spec(16, 10, 4).total_params(),
            tiny_vgg_spec(16, 10, 8).total_params());
  EXPECT_LT(tiny_cnn_spec().total_params(), tiny_vgg_spec().total_params());
}

TEST(BuiltModel, ForwardShapeMatchesSpec) {
  Rng rng(31);
  const auto spec = tiny_vgg_spec(16, 10, 4);
  BuiltModel model(spec, rng);
  const Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const Tensor y = model.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 10}));
}

TEST(BuiltModel, ParamCountMatchesSpec) {
  Rng rng(32);
  for (const auto& spec : {tiny_vgg_spec(16, 10, 4), tiny_resnet_spec(16, 10, 4),
                           tiny_cnn_spec(16, 10, 4)}) {
    BuiltModel model(spec, rng);
    EXPECT_EQ(model.param_count(), spec.total_params()) << spec.name;
  }
}

TEST(BuiltModel, RangeForwardEqualsFullForward) {
  Rng rng(33);
  const auto spec = tiny_resnet_spec(16, 10, 4);
  BuiltModel model(spec, rng);
  const Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const Tensor full = model.forward(x, false);
  Tensor mid = model.forward_range(0, 3, x, false);
  mid = model.forward_range(3, model.num_atoms(), mid, false);
  for (std::int64_t i = 0; i < full.numel(); ++i)
    EXPECT_FLOAT_EQ(full[i], mid[i]);
}

TEST(BuiltModel, SaveLoadAllRoundTrip) {
  Rng rng(34);
  const auto spec = tiny_vgg_spec(16, 10, 4);
  BuiltModel a(spec, rng), b(spec, rng);
  const auto blob = a.save_all();
  b.load_all(blob);
  EXPECT_EQ(b.save_all(), blob);
  BuiltModel c(spec, blob);  // a replica built straight from the blob
  EXPECT_EQ(c.save_all(), blob);
  const Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
  const Tensor yc = c.forward(x, false);
  for (std::int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
    EXPECT_FLOAT_EQ(ya[i], yc[i]);
  }
}

TEST(BuiltModel, AtomBlobsPartitionTheFullBlob) {
  // Plain atoms, VGG atoms with BatchNorm buffers, and residual atoms whose
  // projection shortcut adds a conv and a BatchNorm after the main path.
  for (const auto& spec : {tiny_cnn_spec(16, 10, 4), tiny_vgg_spec(16, 10, 4),
                           tiny_resnet_spec(16, 10, 4)}) {
    Rng rng(35);
    BuiltModel model(spec, rng);
    const nn::ParamBlob blob = model.save_all();
    ASSERT_EQ(model.blob_size(), blob.size()) << spec.name;
    std::size_t offset = 0;
    for (std::size_t a = 0; a < model.num_atoms(); ++a) {
      const nn::ParamBlob atom = model.save_atom(a);
      const std::span<const float> view = model.atom_view(blob, a);
      EXPECT_EQ(view.data(), blob.data() + offset) << spec.name << " atom " << a;
      ASSERT_EQ(view.size(), atom.size()) << spec.name << " atom " << a;
      EXPECT_TRUE(std::equal(view.begin(), view.end(), atom.begin()))
          << spec.name << " atom " << a;
      offset += atom.size();
    }
    EXPECT_EQ(offset, blob.size()) << spec.name;
    EXPECT_THROW(model.atom_view(nn::ParamBlob(blob.size() - 1), 0),
                 std::invalid_argument);
  }
}

TEST(BuiltModel, BnBankSwitchPropagates) {
  Rng rng(36);
  BuiltModel model(tiny_resnet_spec(16, 10, 4), rng);
  model.use_bn_bank(1);
  int bank1 = 0, total = 0;
  for (std::size_t a = 0; a < model.num_atoms(); ++a)
    model.atom(a).for_each_bn([&](nn::BatchNorm2d& bn) {
      ++total;
      bank1 += bn.active_bank() == 1;
    });
  EXPECT_GT(total, 0);
  EXPECT_EQ(bank1, total);
  model.use_bn_bank(0);
}

TEST(BuiltModel, BnTrackingTogglePropagates) {
  Rng rng(37);
  BuiltModel model(tiny_vgg_spec(16, 10, 4), rng);
  model.set_bn_tracking(false);
  const Tensor x = Tensor::randn({4, 3, 16, 16}, rng);
  model.forward(x, true);
  bool any_moved = false;
  for (std::size_t a = 0; a < model.num_atoms(); ++a)
    model.atom(a).for_each_bn([&](nn::BatchNorm2d& bn) {
      for (std::int64_t c = 0; c < bn.channels(); ++c)
        any_moved |= bn.running_mean(0)[c] != 0.0f;
    });
  EXPECT_FALSE(any_moved);
  model.set_bn_tracking(true);
}

TEST(BuiltModel, GradientsFlowThroughWholeNet) {
  Rng rng(38);
  BuiltModel model(tiny_vgg_spec(16, 10, 4), rng);
  const Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const Tensor y = model.forward(x, true);
  model.zero_grad_range(0, model.num_atoms());
  Tensor g(y.shape());
  g.fill(1.0f);
  const Tensor gx = model.backward_range(0, model.num_atoms(), g);
  EXPECT_EQ(gx.shape(), x.shape());
  double grad_mag = 0;
  for (auto* grad : model.gradients_range(0, model.num_atoms()))
    grad_mag += grad->l2_norm();
  EXPECT_GT(grad_mag, 0.0);
}

}  // namespace
}  // namespace fp::models
