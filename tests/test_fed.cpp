#include <gtest/gtest.h>

#include <set>

#include "fed/aggregator.hpp"
#include "fed/client_pool.hpp"
#include "fed/env.hpp"
#include "fed/sampler.hpp"
#include "models/zoo.hpp"

namespace fp::fed {
namespace {

TEST(ClientSampler, DistinctIdsWithinRound) {
  ClientSampler sampler(20, 81);
  for (int r = 0; r < 10; ++r) {
    const auto ids = sampler.sample(5);
    EXPECT_EQ(std::set<std::size_t>(ids.begin(), ids.end()).size(), 5u);
    for (const auto id : ids) EXPECT_LT(id, 20u);
  }
  EXPECT_THROW(sampler.sample(21), std::invalid_argument);
}

TEST(ClientSampler, EventuallyCoversEveryone) {
  ClientSampler sampler(10, 82);
  std::set<std::size_t> seen;
  for (int r = 0; r < 30; ++r)
    for (const auto id : sampler.sample(3)) seen.insert(id);
  EXPECT_EQ(seen.size(), 10u);
}

TEST(BlobAverager, WeightedMean) {
  BlobAverager avg;
  EXPECT_TRUE(avg.empty());
  avg.add({1.0f, 10.0f}, 1.0f);
  avg.add({3.0f, 30.0f}, 3.0f);
  const auto mean = avg.average();
  EXPECT_FLOAT_EQ(mean[0], 2.5f);   // (1*1 + 3*3) / 4
  EXPECT_FLOAT_EQ(mean[1], 25.0f);
  avg.reset();
  EXPECT_TRUE(avg.empty());
  EXPECT_THROW(avg.average(), std::logic_error);
}

TEST(PartialAccumulator, DenseAverageOfTwoClients) {
  Rng rng(83);
  const auto spec = models::tiny_cnn_spec(16, 4, 4);
  models::BuiltModel global(spec, rng), a(spec, rng), b(spec, rng);
  PartialAccumulator acc(global);
  acc.reset();
  // Uploads read in place: each atom is a view into the client's whole blob.
  const auto ga = a.save_all();
  const auto gb = b.save_all();
  for (std::size_t at = 0; at < global.num_atoms(); ++at) {
    acc.add_dense_atom_blob(at, a.atom_view(ga, at), 1.0f);
    acc.add_dense_atom_blob(at, b.atom_view(gb, at), 1.0f);
  }
  acc.finalize_into(global);
  const auto gg = global.save_all();
  for (std::size_t i = 0; i < gg.size(); ++i)
    EXPECT_NEAR(gg[i], 0.5f * (ga[i] + gb[i]), 1e-6f);
}

TEST(PartialAccumulator, UntouchedAtomsKeepValues) {
  Rng rng(84);
  const auto spec = models::tiny_cnn_spec(16, 4, 4);
  models::BuiltModel global(spec, rng), trained(spec, rng);
  const auto before = global.save_atom(global.num_atoms() - 1);
  PartialAccumulator acc(global);
  acc.reset();
  acc.add_dense_atom_blob(0, trained.save_atom(0), 1.0f);  // atom 0 only
  acc.finalize_into(global);
  EXPECT_EQ(global.save_atom(global.num_atoms() - 1), before);
  EXPECT_EQ(global.save_atom(0), trained.save_atom(0));
}

TEST(PartialAccumulator, WeightsFollowDataFractions) {
  Rng rng(85);
  const auto spec = models::tiny_cnn_spec(16, 4, 4);
  models::BuiltModel global(spec, rng), a(spec, rng), b(spec, rng);
  PartialAccumulator acc(global);
  acc.reset();
  acc.add_dense_atom_blob(0, a.save_atom(0), 3.0f);
  acc.add_dense_atom_blob(0, b.save_atom(0), 1.0f);
  acc.finalize_into(global);
  const auto ga = a.save_atom(0);
  const auto gb = b.save_atom(0);
  const auto gg = global.save_atom(0);
  for (std::size_t i = 0; i < gg.size(); ++i)
    EXPECT_NEAR(gg[i], 0.75f * ga[i] + 0.25f * gb[i], 1e-6f);
}

TEST(MakeEnv, BuildsShardsWeightsAndDevices) {
  data::SyntheticConfig dcfg = data::synth_cifar_config();
  dcfg.train_size = 400;
  dcfg.test_size = 40;
  const auto data = data::make_synthetic(dcfg);
  FedEnvConfig cfg;
  cfg.fl.num_clients = 8;
  cfg.with_public_set = true;
  const auto env = make_env(data, cfg, models::vgg16_spec(32, 10));
  EXPECT_EQ(env.shards.size(), 8u);
  EXPECT_GT(env.public_set.size(), 0);
  float wsum = 0;
  for (const auto w : env.weights) wsum += w;
  EXPECT_NEAR(wsum, 1.0f, 1e-5f);
  EXPECT_TRUE(env.devices.has_value());
  EXPECT_EQ(env.cost_spec.name, "VGG16");
}

TEST(SimulateRoundTime, PicksSlowestClient) {
  const auto spec = models::vgg16_spec(32, 10);
  sys::DeviceInstance fast, slow;
  fast.avail_mem_bytes = 1ll << 34;  // plenty: no swap
  fast.avail_flops = 1e13;
  fast.io_bytes_per_s = 16e9;
  slow = fast;
  slow.avail_flops = 1e11;
  ClientWork w;
  w.atom_begin = 0;
  w.atom_end = spec.atoms.size();
  w.pgd_steps = 10;
  sys::TrainCostConfig cost_cfg;
  cost_cfg.batch_size = 64;
  const auto t =
      simulate_round_time(spec, {fast, slow}, {w, w}, cost_cfg, 10);
  // The slow client is 100x slower: round time ~ its compute time.
  const auto t_slow = simulate_round_time(spec, {slow}, {w}, cost_cfg, 10);
  EXPECT_NEAR(t.total(), t_slow.total(), 1e-9);
  EXPECT_EQ(t.access_s, 0.0);
}

TEST(SimulateRoundTime, SwapAddsAccessTime) {
  const auto spec = models::vgg16_spec(32, 10);
  sys::DeviceInstance starved;
  starved.avail_mem_bytes = 60ll << 20;  // 60 MB for a ~300 MB model
  starved.avail_flops = 1e12;
  starved.io_bytes_per_s = 1.5e9;
  ClientWork w;
  w.atom_begin = 0;
  w.atom_end = spec.atoms.size();
  w.pgd_steps = 10;
  sys::TrainCostConfig cost_cfg;
  cost_cfg.batch_size = 64;
  const auto t = simulate_round_time(spec, {starved}, {w}, cost_cfg, 30);
  EXPECT_GT(t.access_s, 0.0);
  // The paper's core observation: data access dominates swapped jFAT.
  EXPECT_GT(t.access_s, t.compute_s);
}

TEST(ClientPool, PersistentIteratorsAndRngs) {
  data::SyntheticConfig dcfg = data::synth_cifar_config();
  dcfg.train_size = 100;
  dcfg.test_size = 20;
  const auto data = data::make_synthetic(dcfg);
  FedEnvConfig cfg;
  cfg.fl.num_clients = 4;
  auto env = make_env(data, cfg, models::vgg16_spec(32, 10));
  ClientPool pool(env, 7);
  auto& it_a = pool.batches(0, 8);
  auto& it_b = pool.batches(0, 8);
  EXPECT_EQ(&it_a, &it_b);  // same persistent iterator
  const auto batch = it_a.next();
  EXPECT_EQ(batch.x.dim(0), 8);
}

}  // namespace
}  // namespace fp::fed
