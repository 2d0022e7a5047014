#include <gtest/gtest.h>

#include "fed/aggregator.hpp"
#include "models/slicing.hpp"
#include "models/zoo.hpp"

namespace fp::models {
namespace {

TEST(Slicing, FullRatioIsIdentity) {
  Rng rng(41);
  const auto spec = tiny_vgg_spec(16, 10, 4);
  const auto plan = make_slice_plan(spec, 1.0, SliceScheme::kStatic, 0, rng);
  EXPECT_EQ(plan.sliced_spec.total_params(), spec.total_params());
  BuiltModel global(spec, rng), sliced(plan.sliced_spec, rng);
  sliced.load_all(gather_weights(plan, global));
  EXPECT_EQ(sliced.save_all(), global.save_all());
}

TEST(Slicing, HalfRatioShrinksParams) {
  Rng rng(42);
  const auto spec = tiny_vgg_spec(16, 10, 8);
  const auto plan = make_slice_plan(spec, 0.5, SliceScheme::kStatic, 0, rng);
  // Width-r slicing shrinks conv params about r^2.
  const double frac = static_cast<double>(plan.sliced_spec.total_params()) /
                      static_cast<double>(spec.total_params());
  EXPECT_LT(frac, 0.45);
  EXPECT_GT(frac, 0.15);
  // Output layer keeps all classes.
  EXPECT_EQ(plan.sliced_spec.atoms.back().layers.back().out_channels, 10);
}

TEST(Slicing, SlicedModelForwardWorks) {
  Rng rng(43);
  for (const auto scheme :
       {SliceScheme::kStatic, SliceScheme::kRandom, SliceScheme::kRolling}) {
    const auto spec = tiny_vgg_spec(16, 10, 8);
    const auto plan = make_slice_plan(spec, 0.5, scheme, 3, rng);
    BuiltModel global(spec, rng), sliced(plan.sliced_spec, rng);
    sliced.load_all(gather_weights(plan, global));
    const Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
    const Tensor y = sliced.forward(x, true);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 10}));
  }
}

TEST(Slicing, ResidualModelSliceKeepsIdentityAlignment) {
  Rng rng(44);
  const auto spec = tiny_resnet_spec(16, 10, 8);
  const auto plan = make_slice_plan(spec, 0.5, SliceScheme::kStatic, 0, rng);
  BuiltModel global(spec, rng), sliced(plan.sliced_spec, rng);
  sliced.load_all(gather_weights(plan, global));
  const Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  EXPECT_NO_THROW(sliced.forward(x, true));
  // Identity blocks must keep in == out channel sets: sliced spec block 1
  // (identity) input width equals its output width.
  const auto& bb1 = plan.sliced_spec.atoms[1];
  EXPECT_EQ(bb1.layers[0].in_channels, bb1.layers[4].out_channels);
}

TEST(Slicing, RollingWindowAdvancesWithRound) {
  Rng rng(45);
  const auto spec = tiny_vgg_spec(16, 10, 8);
  const auto p0 = make_slice_plan(spec, 0.5, SliceScheme::kRolling, 0, rng);
  const auto p1 = make_slice_plan(spec, 0.5, SliceScheme::kRolling, 3, rng);
  EXPECT_NE(p0.atoms[0].layers[0].out, p1.atoms[0].layers[0].out);
}

TEST(Slicing, StaticSchemeIsPrefix) {
  Rng rng(46);
  const auto spec = tiny_vgg_spec(16, 10, 8);
  const auto plan = make_slice_plan(spec, 0.5, SliceScheme::kStatic, 0, rng);
  const auto& out = plan.atoms[0].layers[0].out;
  ASSERT_EQ(out.size(), 4u);  // half of width 8
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i));
}

TEST(Slicing, GatherScatterRoundTripIsExactOnKeptChannels) {
  Rng rng(47);
  const auto spec = tiny_vgg_spec(16, 10, 4);
  const auto plan = make_slice_plan(spec, 0.5, SliceScheme::kRolling, 7, rng);
  BuiltModel global(spec, rng), sliced(plan.sliced_spec, rng);
  sliced.load_all(gather_weights(plan, global));

  // Scatter the (untrained) sliced model back with weight 1 and average:
  // kept channels must reproduce the global values they were gathered from.
  fed::PartialAccumulator acc(global);
  acc.reset();
  acc.add_sliced(plan, global, sliced.save_all(), 1.0f);
  const auto before = global.save_all();
  acc.finalize_into(global);
  const auto after = global.save_all();
  EXPECT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_NEAR(before[i], after[i], 1e-6f) << "blob index " << i;
}

TEST(Slicing, PartialAverageOnlyTouchesTrainedChannels) {
  Rng rng(48);
  const auto spec = tiny_cnn_spec(16, 10, 8);
  const auto plan = make_slice_plan(spec, 0.25, SliceScheme::kStatic, 0, rng);
  BuiltModel global(spec, rng), sliced(plan.sliced_spec, rng);
  sliced.load_all(gather_weights(plan, global));
  // "Train": shift every sliced parameter by +1.
  for (auto* p : sliced.parameters_range(0, sliced.num_atoms()))
    p->add_scalar_(1.0f);

  fed::PartialAccumulator acc(global);
  acc.reset();
  acc.add_sliced(plan, global, sliced.save_all(), 2.0f);  // any weight: mean
  const auto before = global.save_all();
  acc.finalize_into(global);
  const auto after = global.save_all();
  std::size_t changed = 0, unchanged = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    (std::abs(after[i] - before[i]) > 1e-6f ? changed : unchanged)++;
  EXPECT_GT(changed, 0u);
  EXPECT_GT(unchanged, 0u);  // unsliced channels must stay untouched
}

TEST(Slicing, MinimumOneChannelKept) {
  Rng rng(49);
  const auto spec = tiny_cnn_spec(16, 10, 4);
  const auto plan = make_slice_plan(spec, 0.01, SliceScheme::kStatic, 0, rng);
  for (const auto& atom : plan.atoms)
    for (const auto& layer : atom.layers)
      if (!layer.out.empty()) EXPECT_GE(layer.out.size(), 1u);
  BuiltModel sliced(plan.sliced_spec, rng);
  const Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  EXPECT_NO_THROW(sliced.forward(x, false));
}

}  // namespace
}  // namespace fp::models
