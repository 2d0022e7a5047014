// Checkpoint round-trip fidelity and failure modes (DESIGN.md §12).
//
// The serving plane's exactness contract starts here: a whole-model
// save_all -> save_checkpoint -> load_checkpoint -> load_all round trip must
// reproduce the forward bit-for-bit (fp32 AND the int8/Winograd inference
// path), and every way a checkpoint can be wrong — truncated file, corrupt
// payload, version skew, blob/model size mismatch — must fail loudly with
// the path and the expected-vs-found numbers in the message.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "blob_hash.hpp"
#include "exp/registries.hpp"
#include "exp/spec.hpp"
#include "models/built_model.hpp"
#include "exp/runner.hpp"
#include "nn/linear.hpp"
#include "nn/model_io.hpp"
#include "nn/serialize.hpp"
#include "serve/model_host.hpp"
#include "tensor/rng.hpp"

namespace fp {
namespace {

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// what() of an expected throw; fails the test when nothing is thrown.
template <typename Ex, typename Fn>
std::string message_of(Fn&& fn) {
  try {
    fn();
  } catch (const Ex& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong exception type: " << e.what();
    return "";
  }
  ADD_FAILURE() << "expected an exception";
  return "";
}

/// A small registry model + its spec, as make_served_model would build it.
struct TestModel {
  exp::ExperimentSpec spec;
  sys::ModelSpec model_spec;
};

TestModel resolve_test_model() {
  TestModel t;
  exp::ExperimentSpec spec;
  spec.model_width = 4;
  t.spec = exp::resolve_full(std::move(spec));
  const exp::ModelParams mp{t.spec.model_image, t.spec.model_classes,
                            t.spec.model_width};
  t.model_spec = exp::model_registry().resolve(t.spec.model)(mp);
  return t;
}

std::uint64_t forward_hash(models::BuiltModel& model, const Tensor& x,
                           const compute::ComputeConfig& cc) {
  const Tensor logits = serve::reference_forward(model, x, cc);
  nn::ParamBlob v(logits.data(), logits.data() + logits.numel());
  return test::fnv1a(v);
}

TEST(Serialize, WholeModelRoundTripIsBitIdentical) {
  const TestModel t = resolve_test_model();
  Rng rng(41);
  models::BuiltModel trained(t.model_spec, rng);
  const nn::ParamBlob blob = trained.save_all();

  const std::string path = tmp_path("fp_roundtrip.fpck");
  nn::save_checkpoint(path, blob);
  const nn::ParamBlob back = nn::load_checkpoint(path);
  EXPECT_EQ(back, blob);  // bitwise: ParamBlob compares float by float

  // A differently-initialized model must forward identically once loaded —
  // in fp32 and on the quantized inference path.
  Rng other(999);
  models::BuiltModel restored(t.model_spec, other);
  restored.load_all(back);
  Rng data_rng(7);
  const Tensor x = Tensor::randn({3, t.model_spec.input.c,
                                  t.model_spec.input.h, t.model_spec.input.w},
                                 data_rng);
  compute::ComputeConfig fp32;
  compute::ComputeConfig int8w;
  int8w.precision = compute::Precision::kInt8;
  int8w.winograd = true;
  EXPECT_EQ(forward_hash(restored, x, fp32), forward_hash(trained, x, fp32));
  EXPECT_EQ(forward_hash(restored, x, int8w), forward_hash(trained, x, int8w));
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileNamesPathAndSizes) {
  const std::string path = tmp_path("fp_truncated.fpck");
  nn::save_checkpoint(path, nn::ParamBlob{1.f, 2.f, 3.f, 4.f});
  std::filesystem::resize_file(path, 16 + 2 * 4);  // half the payload, no trailer
  const std::string msg = message_of<std::runtime_error>(
      [&] { nn::load_checkpoint(path); });
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("promises 4 floats"), std::string::npos) << msg;
  EXPECT_NE(msg.find("truncated or corrupt"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Serialize, CorruptPayloadNamesBothChecksums) {
  const std::string path = tmp_path("fp_corrupt.fpck");
  nn::save_checkpoint(path, nn::ParamBlob{1.f, 2.f, 3.f});
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16 + 1);
    f.put('\x5a');
  }
  const std::string msg = message_of<std::runtime_error>(
      [&] { nn::load_checkpoint(path); });
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  // Both hashes appear, so the user can tell corruption from version skew.
  EXPECT_NE(msg.find("stored 0x"), std::string::npos) << msg;
  EXPECT_NE(msg.find("hashes to 0x"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Serialize, VersionSkewNamesFoundAndSupported) {
  const std::string path = tmp_path("fp_version.fpck");
  nn::save_checkpoint(path, nn::ParamBlob{1.f});
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put('\x09');  // version 9
  }
  const std::string msg = message_of<std::runtime_error>(
      [&] { nn::load_checkpoint(path); });
  EXPECT_NE(msg.find("unsupported version 9"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reads version 1"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Serialize, LoadBlobMismatchReportsCountsAndLeavesLayerUntouched) {
  Rng rng(17);
  nn::Linear lin(6, 3, rng);
  const nn::ParamBlob before = nn::save_blob(lin);
  const std::string msg = message_of<std::invalid_argument>(
      [&] { nn::load_blob(lin, nn::ParamBlob(5, 0.f)); });
  EXPECT_NE(msg.find("5 floats"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exactly"), std::string::npos) << msg;
  // The size check runs before any copy: a bad blob is all-or-nothing.
  EXPECT_EQ(nn::save_blob(lin), before);

  // The check counts the view, not the buffer around it: a blob read in
  // place from the middle of a larger buffer loads the same bytes as the
  // piece copied out of it.
  nn::Linear src(6, 3, rng), from_copy(6, 3, rng);
  const nn::ParamBlob piece = nn::save_blob(src);
  nn::ParamBlob buffer(11, -1.0f);
  buffer.insert(buffer.end(), piece.begin(), piece.end());
  buffer.resize(buffer.size() + 5, -2.0f);
  nn::load_blob(lin, std::span<const float>(buffer).subspan(11, piece.size()));
  nn::load_blob(from_copy, nn::ParamBlob(buffer.begin() + 11,
                                         buffer.begin() + 11 + piece.size()));
  EXPECT_EQ(nn::save_blob(lin), nn::save_blob(from_copy));
  EXPECT_EQ(nn::save_blob(lin), piece);
}

TEST(Serialize, ModelLoadAllMismatchNamesModel) {
  const TestModel t = resolve_test_model();
  Rng rng(5);
  models::BuiltModel model(t.model_spec, rng);
  const nn::ParamBlob before = model.save_all();
  const std::string msg = message_of<std::invalid_argument>(
      [&] { model.load_all(nn::ParamBlob(3, 0.f)); });
  EXPECT_NE(msg.find(t.model_spec.name), std::string::npos) << msg;
  EXPECT_NE(msg.find("3 floats"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exactly " + std::to_string(before.size())),
            std::string::npos)
      << msg;
  EXPECT_EQ(model.save_all(), before);
}

TEST(Serialize, LayerCheckpointMismatchNamesFile) {
  Rng rng(23);
  const std::string path = tmp_path("fp_wrong_layer.fpck");
  nn::Linear big(6, 3, rng);
  nn::save_layer_checkpoint(path, big);
  nn::Linear small(2, 2, rng);
  const std::string msg = message_of<std::runtime_error>(
      [&] { nn::load_layer_checkpoint(path, small); });
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("does not fit"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Serialize, ExportModelWritesCheckpointAndSidecar) {
  const TestModel t = resolve_test_model();
  Rng rng(3);
  models::BuiltModel model(t.model_spec, rng);
  const std::string path = tmp_path("fp_export.fpck");
  serve::export_model(path, t.spec, model.save_all());
  ASSERT_TRUE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(serve::sidecar_path(path)));

  const serve::ServedModel served = serve::load_served_model(path);
  EXPECT_EQ(served.spec.model, t.spec.model);
  EXPECT_EQ(served.model->save_all(), model.save_all());
  std::remove(path.c_str());
  std::remove(serve::sidecar_path(path).c_str());
}

}  // namespace
}  // namespace fp
