// The communication subsystem (src/comm/): wire codecs, the bandwidth-aware
// network model, and their integration with the federated round engine.
//
// * Round-trip contracts: identity is bit-exact; fp16 is within half-ulp
//   relative error; int8's max elementwise error is half the affine grid
//   step; top-k decodes kept coordinates exactly (zeros or the reference
//   elsewhere).
// * Determinism: every codec is a pure function — concurrent encodes match
//   the serial encoding byte-for-byte, and an end-to-end compressed training
//   run is bit-identical across thread counts.
// * The network model converts wire sizes into transfer time only when
//   enabled, so historical sim-time goldens stay untouched by default.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "baselines/whole_model.hpp"
#include "blob_hash.hpp"
#include "comm/channel.hpp"
#include "core/parallel.hpp"
#include "data/synthetic.hpp"
#include "fed/env.hpp"
#include "fedprophet/fedprophet.hpp"
#include "models/zoo.hpp"
#include "tensor/rng.hpp"

namespace fp {
namespace {

nn::ParamBlob random_blob(std::size_t n, std::uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  nn::ParamBlob blob(n);
  for (auto& x : blob) x = rng.gaussian(0.0f, scale);
  return blob;
}

TEST(IdentityCodec, RoundTripIsBitIdentical) {
  const auto blob = random_blob(999, 7);
  comm::IdentityCodec codec;
  const auto msg = codec.encode(blob);
  EXPECT_EQ(msg.num_elems, blob.size());
  EXPECT_EQ(msg.wire_bytes(),
            static_cast<std::int64_t>(blob.size() * 4 +
                                      comm::WireMessage::kHeaderBytes));
  const auto back = codec.decode(msg);
  ASSERT_EQ(back.size(), blob.size());
  for (std::size_t i = 0; i < blob.size(); ++i)
    EXPECT_EQ(std::memcmp(&back[i], &blob[i], sizeof(float)), 0) << i;
}

TEST(Fp16Codec, RoundTripWithinHalfPrecisionTolerance) {
  const auto blob = random_blob(4096, 11, 0.5f);
  comm::Fp16Codec codec;
  const auto msg = codec.encode(blob);
  EXPECT_EQ(msg.wire_bytes(),
            static_cast<std::int64_t>(blob.size() * 2 +
                                      comm::WireMessage::kHeaderBytes));
  const auto back = codec.decode(msg);
  ASSERT_EQ(back.size(), blob.size());
  for (std::size_t i = 0; i < blob.size(); ++i) {
    // Half precision: relative error <= 2^-11 for normals, absolute error
    // <= 2^-25 in the subnormal range.
    const double tol =
        std::max(std::fabs(static_cast<double>(blob[i])) * 0x1.0p-11, 0x1.0p-24);
    EXPECT_NEAR(back[i], blob[i], tol) << "element " << i;
  }
}

TEST(Fp16Codec, ExactOnRepresentableValues) {
  const nn::ParamBlob blob = {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f,
                              1024.0f, 0.09375f, -65504.0f};
  comm::Fp16Codec codec;
  const auto back = codec.decode(codec.encode(blob));
  for (std::size_t i = 0; i < blob.size(); ++i) EXPECT_EQ(back[i], blob[i]) << i;
}

TEST(Int8Codec, MaxErrorBoundedByHalfGridStep) {
  const auto blob = random_blob(2048, 13, 2.0f);
  comm::Int8Codec codec;
  const double step = comm::Int8Codec::grid_step(blob);
  ASSERT_GT(step, 0.0);
  const auto msg = codec.encode(blob);
  EXPECT_EQ(msg.wire_bytes(),
            static_cast<std::int64_t>(blob.size() + 8 +
                                      comm::WireMessage::kHeaderBytes));
  const auto back = codec.decode(msg);
  ASSERT_EQ(back.size(), blob.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < blob.size(); ++i)
    max_err = std::max(max_err, std::fabs(static_cast<double>(back[i]) -
                                          static_cast<double>(blob[i])));
  // Half a grid step, with a sliver of float-arithmetic slack.
  EXPECT_LE(max_err, 0.5 * step * (1.0 + 1e-5) + 1e-9);
}

TEST(Int8Codec, ConstantBlobDecodesExactly) {
  const nn::ParamBlob blob(77, 3.25f);
  comm::Int8Codec codec;
  const auto back = codec.decode(codec.encode(blob));
  for (const float x : back) EXPECT_EQ(x, 3.25f);
}

TEST(TopKCodec, GlobalModeKeepsTopMagnitudesExactlyAndZerosTheRest) {
  const auto blob = random_blob(500, 17);
  comm::TopKCodec codec(0.1, /*delta=*/false);
  const std::size_t k = codec.kept_count(blob.size());
  EXPECT_EQ(k, 50u);
  const auto msg = codec.encode(blob);
  EXPECT_EQ(msg.wire_bytes(),
            static_cast<std::int64_t>(k * 8 + comm::WireMessage::kHeaderBytes));
  const auto back = codec.decode(msg);
  ASSERT_EQ(back.size(), blob.size());

  // The k-th largest magnitude partitions kept from dropped coordinates.
  std::vector<float> mags(blob.size());
  for (std::size_t i = 0; i < blob.size(); ++i) mags[i] = std::fabs(blob[i]);
  std::vector<float> sorted = mags;
  std::sort(sorted.begin(), sorted.end(), std::greater<float>());
  const float kth = sorted[k - 1];

  std::size_t kept = 0;
  for (std::size_t i = 0; i < blob.size(); ++i) {
    if (back[i] != 0.0f) {
      EXPECT_EQ(back[i], blob[i]) << "kept coordinate " << i << " not exact";
      EXPECT_GE(mags[i], kth);
      ++kept;
    } else {
      EXPECT_LE(mags[i], kth);
    }
  }
  EXPECT_EQ(kept, k);
}

TEST(TopKCodec, DeltaModeSelectsByUpdateMagnitudeAndFillsFromReference) {
  const auto ref = random_blob(300, 19);
  nn::ParamBlob blob = ref;
  // A handful of large updates buried under tiny jitter everywhere else.
  Rng rng(23);
  for (auto& x : blob) x += rng.gaussian(0.0f, 1e-4f);
  const std::size_t changed[] = {3, 77, 150, 299};
  for (const std::size_t i : changed) blob[i] += (i % 2 ? 2.0f : -2.0f);

  comm::TopKCodec codec(4.0 / 300.0, /*delta=*/true);
  ASSERT_EQ(codec.kept_count(blob.size()), 4u);
  const auto msg = codec.encode(blob, &ref);
  EXPECT_TRUE(msg.delta);
  const auto back = codec.decode(msg, &ref);
  ASSERT_EQ(back.size(), blob.size());
  for (std::size_t i = 0; i < blob.size(); ++i) {
    const bool was_changed =
        std::find(std::begin(changed), std::end(changed), i) !=
        std::end(changed);
    if (was_changed)
      EXPECT_EQ(back[i], blob[i]) << "large update " << i << " not shipped";
    else
      EXPECT_EQ(back[i], ref[i]) << "unsent coordinate " << i
                                 << " should keep the reference value";
  }
}

TEST(Codecs, ConcurrentEncodesMatchSerialByteForByte) {
  const auto blob = random_blob(3000, 29);
  const auto ref = random_blob(3000, 31);
  std::vector<std::unique_ptr<comm::BlobCodec>> codecs;
  codecs.push_back(std::make_unique<comm::IdentityCodec>());
  codecs.push_back(std::make_unique<comm::Fp16Codec>());
  codecs.push_back(std::make_unique<comm::Int8Codec>());
  codecs.push_back(std::make_unique<comm::TopKCodec>(0.05, true));
  for (const auto& codec : codecs) {
    const auto serial = codec->encode(blob, &ref);
    std::vector<comm::WireMessage> parallel(8);
    core::set_num_threads(4);
    core::parallel_tasks(8, [&](std::int64_t i) {
      parallel[static_cast<std::size_t>(i)] = codec->encode(blob, &ref);
    });
    core::set_num_threads(1);
    for (const auto& msg : parallel) {
      EXPECT_EQ(msg.payload, serial.payload) << codec->name();
      EXPECT_EQ(msg.num_elems, serial.num_elems);
    }
  }
}

TEST(NetworkModel, ConvertsWireBytesOnlyWhenEnabled) {
  sys::DeviceInstance dev;
  dev.net_down_bytes_per_s = 10e6;
  dev.net_up_bytes_per_s = 2e6;
  dev.net_latency_s = 0.02;

  const comm::NetworkModel off(false);
  EXPECT_EQ(off.download_s(dev, 1 << 20), 0.0);
  EXPECT_EQ(off.upload_s(dev, 1 << 20), 0.0);

  const comm::NetworkModel on(true);
  EXPECT_DOUBLE_EQ(on.download_s(dev, 10'000'000), 0.02 + 1.0);
  EXPECT_DOUBLE_EQ(on.upload_s(dev, 2'000'000), 0.02 + 1.0);
  EXPECT_DOUBLE_EQ(on.round_trip_s(dev, 10'000'000, 2'000'000), 2.04);
  EXPECT_EQ(on.upload_s(dev, 0), 0.0);  // nothing transferred, no latency
}

TEST(DeviceSampler, DrawsDegradedNetworkLinks) {
  sys::DeviceSampler sampler(sys::cifar_device_pool(),
                             sys::Heterogeneity::kBalanced, 5);
  for (int i = 0; i < 64; ++i) {
    const auto inst = sampler.sample();
    const auto& peak = sys::cifar_device_pool()[inst.pool_index];
    EXPECT_GT(inst.net_down_bytes_per_s, 0.0);
    EXPECT_GT(inst.net_up_bytes_per_s, 0.0);
    EXPECT_LE(inst.net_down_bytes_per_s, peak.net_down_bytes_per_s() + 1e-9);
    EXPECT_GE(inst.net_down_bytes_per_s,
              0.3 * peak.net_down_bytes_per_s() - 1e-9);
    EXPECT_DOUBLE_EQ(inst.net_latency_s, peak.net_latency_ms * 1e-3);
  }
}

TEST(Channel, IdentityUplinkIsPassThroughWithDenseByteCount) {
  comm::CommConfig cfg;  // defaults: identity, network off
  comm::Channel channel(cfg);
  const auto blob = random_blob(123, 37);
  std::int64_t bytes = 0;
  const auto out = channel.uplink(blob, nullptr, &bytes);
  EXPECT_EQ(out, blob);
  EXPECT_EQ(bytes, static_cast<std::int64_t>(123 * 4 +
                                             comm::WireMessage::kHeaderBytes));
  EXPECT_FALSE(channel.network().enabled());
}

TEST(Channel, TopKDownlinkStaysDenseEvenWhenCompressed) {
  comm::CommConfig cfg;
  cfg.codec = comm::CodecKind::kTopK;
  cfg.compress_downlink = true;  // must not sparsify a broadcast
  comm::Channel channel(cfg);
  const auto blob = random_blob(200, 41);
  std::int64_t down_bytes = 0;
  const auto received = channel.downlink(blob, &down_bytes);
  EXPECT_EQ(received, blob);
  EXPECT_EQ(down_bytes, static_cast<std::int64_t>(
                            200 * 4 + comm::WireMessage::kHeaderBytes));

  // Uplinks do sparsify: unsent coordinates come back as the reference.
  std::int64_t up_bytes = 0;
  nn::ParamBlob update = blob;
  update[7] += 5.0f;
  const auto decoded = channel.uplink(update, &blob, &up_bytes);
  EXPECT_LT(up_bytes, down_bytes);
  EXPECT_EQ(decoded[7], update[7]);
}

// ---- end-to-end: compressed training through the engine ---------------------

using test::fnv1a;

struct TinyRun {
  std::uint64_t hash = 0;
  double sim_total = 0.0;
  double comm_s = 0.0;
  std::int64_t bytes_up = 0;
  std::int64_t bytes_down = 0;
};

TinyRun run_tiny_jfat(comm::CodecKind codec, bool model_network, int threads) {
  core::set_num_threads(threads);
  data::SyntheticConfig dcfg = data::synth_cifar_config();
  dcfg.train_size = 240;
  dcfg.test_size = 80;
  dcfg.num_classes = 4;
  const auto data = data::make_synthetic(dcfg);

  fed::FlConfig fl;
  fl.num_clients = 6;
  fl.clients_per_round = 3;
  fl.local_iters = 2;
  fl.batch_size = 16;
  fl.pgd_steps = 2;
  fl.rounds = 2;
  fl.lr0 = 0.05f;
  fl.sgd.lr = 0.05f;
  fl.comm.codec = codec;
  fl.comm.topk_fraction = 0.1;
  fl.comm.model_network = model_network;

  fed::FedEnvConfig ecfg;
  ecfg.fl = fl;
  auto env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));

  baselines::WholeModelConfig cfg;
  cfg.fl = fl;
  cfg.family = {models::tiny_vgg_spec(16, 4, 4)};
  baselines::WholeModelFAT algo(env, cfg);
  algo.run();
  core::set_num_threads(1);

  TinyRun out;
  out.hash = fnv1a(algo.global_model().save_all());
  out.sim_total = algo.sim_time().total();
  out.comm_s = algo.sim_time().comm_s;
  out.bytes_up = algo.total_stats().bytes_up;
  out.bytes_down = algo.total_stats().bytes_down;
  return out;
}

// FedProphet's wire path is different from the blob baselines': per-atom
// uplinks against broadcast slices plus auxiliary heads. Run it compressed
// (top-k delta, network model on) and require a bit-identical replay across
// thread counts.
TEST(CommIntegration, FedProphetCompressedWirePathIsDeterministic) {
  data::SyntheticConfig dcfg = data::synth_cifar_config();
  dcfg.train_size = 240;
  dcfg.test_size = 80;
  dcfg.num_classes = 4;
  const auto data = data::make_synthetic(dcfg);

  fed::FlConfig fl;
  fl.num_clients = 6;
  fl.clients_per_round = 3;
  fl.local_iters = 2;
  fl.batch_size = 16;
  fl.pgd_steps = 2;
  fl.rounds = 2;
  fl.lr0 = 0.05f;
  fl.sgd.lr = 0.05f;
  fl.comm.codec = comm::CodecKind::kTopK;
  fl.comm.topk_fraction = 0.25;
  fl.comm.model_network = true;

  nn::ParamBlob blobs[2];
  std::int64_t bytes_up[2] = {0, 0};
  const int thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    core::set_num_threads(thread_counts[run]);
    fed::FedEnvConfig ecfg;
    ecfg.fl = fl;
    auto env = fed::make_env(data, ecfg, models::vgg16_spec(32, 10));
    fedprophet::FedProphetConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = models::tiny_vgg_spec(16, 4, 4);
    const auto full = sys::module_train_mem_bytes(
        cfg.model_spec, 0, cfg.model_spec.atoms.size(), fl.batch_size, false);
    cfg.rmin_bytes = full / 3;
    cfg.rounds_per_module = 2;
    cfg.eval_every = 2;
    cfg.val_samples = 32;
    cfg.device_mem_scale =
        static_cast<double>(full) / (2.0 * static_cast<double>(1ull << 30));
    fedprophet::FedProphet algo(env, cfg);
    algo.train();
    blobs[run] = algo.global_model().save_all();
    bytes_up[run] = algo.total_stats().bytes_up;
  }
  core::set_num_threads(1);
  EXPECT_GT(bytes_up[0], 0);
  EXPECT_EQ(bytes_up[0], bytes_up[1]);
  ASSERT_EQ(blobs[0].size(), blobs[1].size());
  for (std::size_t i = 0; i < blobs[0].size(); ++i)
    ASSERT_EQ(blobs[0][i], blobs[1][i]) << "replay diverged at element " << i;
}

TEST(CommIntegration, CompressedRunsAreBitIdenticalAcrossThreadCounts) {
  for (const auto codec : {comm::CodecKind::kInt8, comm::CodecKind::kTopK}) {
    const TinyRun a = run_tiny_jfat(codec, /*model_network=*/true, 1);
    const TinyRun b = run_tiny_jfat(codec, /*model_network=*/true, 4);
    EXPECT_EQ(a.hash, b.hash) << comm::codec_name(codec);
    EXPECT_EQ(a.sim_total, b.sim_total);
    EXPECT_EQ(a.bytes_up, b.bytes_up);
    EXPECT_EQ(a.bytes_down, b.bytes_down);
  }
}

TEST(CommIntegration, CompressionShrinksUploadsAndNetworkModelAddsCommTime) {
  const TinyRun dense = run_tiny_jfat(comm::CodecKind::kIdentity, true, 1);
  const TinyRun int8 = run_tiny_jfat(comm::CodecKind::kInt8, true, 1);
  const TinyRun topk = run_tiny_jfat(comm::CodecKind::kTopK, true, 1);

  ASSERT_GT(dense.bytes_up, 0);
  // Int8 approaches 4x (header overhead keeps it a hair under); top-10%
  // with (u32, f32) pairs is 5x.
  EXPECT_GT(static_cast<double>(dense.bytes_up),
            3.9 * static_cast<double>(int8.bytes_up));
  EXPECT_GT(static_cast<double>(dense.bytes_up),
            4.5 * static_cast<double>(topk.bytes_up));
  // Downlinks stay dense by default: same broadcast traffic for all three.
  EXPECT_EQ(dense.bytes_down, int8.bytes_down);
  EXPECT_EQ(dense.bytes_down, topk.bytes_down);
  // The network model priced the transfers, and the smaller uploads cost
  // less simulated wall-clock.
  EXPECT_GT(dense.comm_s, 0.0);
  EXPECT_GT(int8.comm_s, 0.0);
  EXPECT_LT(int8.comm_s, dense.comm_s);

  // With the network model off, byte accounting still runs but comm time
  // stays out of the clock (the historical sim-time behavior).
  const TinyRun off = run_tiny_jfat(comm::CodecKind::kIdentity, false, 1);
  EXPECT_EQ(off.comm_s, 0.0);
  EXPECT_EQ(off.bytes_up, dense.bytes_up);
  EXPECT_LT(off.sim_total, dense.sim_total);
}

}  // namespace
}  // namespace fp
