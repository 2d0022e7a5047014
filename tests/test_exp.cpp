// The declarative experiment API (src/exp/, DESIGN.md §7).
//
// * Registry completeness: all eight method names resolve and train, and the
//   registry-constructed run is HASH-IDENTICAL to direct construction of the
//   method's config (the pre-refactor bench_common wiring) on the same spec.
// * Spec round-trip: parse -> serialize -> reparse equality, nested and
//   dotted config forms, CLI overrides.
// * Strict keys: unknown keys/values throw with a nearest-name suggestion.
// * Reproduction artifact: the shipped bench_comm cell config equals the
//   programmatically-built scenario spec, and FP_BENCH_OUT exports a
//   trajectory CSV plus the resolved spec JSON.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "baselines/distillation.hpp"
#include "baselines/fedrbn.hpp"
#include "baselines/jfat.hpp"
#include "baselines/partial_training.hpp"
#include "bench_common.hpp"
#include "blob_hash.hpp"
#include "exp/json.hpp"
#include "exp/runner.hpp"
#include "fedprophet/fedprophet.hpp"

namespace fp {
namespace {

using test::fnv1a;

/// A tiny fully-explicit scenario (no FAST-dependent autos except eval, which
/// the hash comparisons never invoke).
exp::ExperimentSpec tiny_spec(const std::string& method) {
  exp::ExperimentSpec spec;
  spec.method = method;
  for (const char* kv : {
           "workload=cifar", "model.width=4", "model.classes=4",
           "data.train_size=240", "data.test_size=80", "fl.num_clients=6",
           "fl.clients_per_round=3", "fl.local_iters=2", "fl.batch_size=16",
           "fl.pgd_steps=2", "fl.rounds=2", "fl.lr0=0.05", "fl.sgd.lr=0.05",
           "fl.seed=123", "fp.rounds_per_module=2", "fp.eval_every=2",
           "fp.val_samples=32",
       })
    exp::apply_override(spec, kv);
  return spec;
}

/// Direct construction of each method — the pre-registry run_method wiring —
/// returning the final aggregate hash.
std::uint64_t train_direct(const std::string& name, exp::Setup& s) {
  const auto& fl = s.spec.fl;
  if (name == "jFAT") {
    baselines::JFatConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = s.model;
    baselines::JFat algo(s.env, cfg);
    algo.run();
    return fnv1a(algo.global_model().save_all());
  }
  if (name == "FedDF-AT" || name == "FedET-AT") {
    baselines::DistillationConfig cfg;
    cfg.fl = fl;
    cfg.family = s.kd_family;
    cfg.ensemble_transfer = (name == "FedET-AT");
    cfg.distill_iters = 8;
    cfg.device_mem_scale = s.device_mem_scale;
    baselines::DistillationFAT algo(s.env, cfg);
    algo.run();
    return fnv1a(algo.global_model().save_all());
  }
  if (name == "HeteroFL-AT" || name == "FedDrop-AT" || name == "FedRolex-AT") {
    baselines::PartialTrainingConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = s.model;
    cfg.scheme = name == "HeteroFL-AT" ? models::SliceScheme::kStatic
                 : name == "FedDrop-AT" ? models::SliceScheme::kRandom
                                        : models::SliceScheme::kRolling;
    cfg.device_mem_scale = s.device_mem_scale;
    baselines::PartialTrainingFAT algo(s.env, cfg);
    algo.run();
    return fnv1a(algo.global_model().save_all());
  }
  if (name == "FedRBN") {
    baselines::FedRbnConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = s.model;
    cfg.device_mem_scale = s.device_mem_scale;
    baselines::FedRbn algo(s.env, cfg);
    algo.run();
    return fnv1a(algo.global_model().save_all());
  }
  if (name == "FedProphet") {
    fedprophet::FedProphetConfig cfg;
    cfg.fl = fl;
    cfg.model_spec = s.model;
    cfg.rmin_bytes = s.rmin;
    cfg.rounds_per_module = s.spec.fp_rounds_per_module;
    cfg.eval_every = s.spec.fp_eval_every;
    cfg.device_mem_scale = s.device_mem_scale;
    cfg.val_samples = s.spec.fp_val_samples;
    fedprophet::FedProphet algo(s.env, cfg);
    algo.train();
    return fnv1a(algo.global_model().save_all());
  }
  ADD_FAILURE() << "no direct constructor for " << name;
  return 0;
}

TEST(MethodRegistry, AllEightMethodsResolveAndMatchDirectConstruction) {
  const std::vector<std::string> expected = {
      "jFAT",        "FedDF-AT",   "FedET-AT", "HeteroFL-AT",
      "FedDrop-AT",  "FedRolex-AT", "FedRBN",  "FedProphet"};
  EXPECT_EQ(exp::method_registry().names(), expected);

  for (const auto& name : expected) {
    // Fresh setups for each path: training consumes env RNG state.
    auto direct_setup = exp::build_setup(tiny_spec(name));
    const std::uint64_t direct_hash = train_direct(name, direct_setup);

    auto registry_setup = exp::build_setup(tiny_spec(name));
    exp::MethodRun run =
        exp::method_registry().resolve(name)(registry_setup);
    run.train();
    const std::uint64_t registry_hash =
        fnv1a(run.algo->global_model().save_all());
    EXPECT_EQ(registry_hash, direct_hash)
        << name << ": registry-driven run diverged from direct construction";
    EXPECT_GT(run.algo->total_stats().bytes_up, 0) << name << " trained nothing";
  }
}

TEST(ExperimentSpec, RoundTripsThroughJson) {
  exp::ExperimentSpec spec = tiny_spec("FedProphet");
  exp::apply_override(spec, "comm.codec=topk");
  exp::apply_override(spec, "fl.scheduler=async");
  exp::apply_override(spec, "async.dropout_prob=0.125");
  exp::apply_override(spec, "mem.enforce_budget=1");
  const std::string json = exp::spec_to_json(spec);
  const exp::ExperimentSpec reparsed = exp::spec_from_json(json);
  EXPECT_TRUE(exp::specs_equal(spec, reparsed));
  EXPECT_EQ(json, exp::spec_to_json(reparsed));
}

TEST(ExperimentSpec, ComputePrecisionRoundTripsAndValidates) {
  exp::ExperimentSpec spec = tiny_spec("FedProphet");
  EXPECT_EQ(exp::get_key(spec, "compute.precision"), "fp32");  // default
  EXPECT_EQ(exp::get_key(spec, "compute.winograd"), "false");
  exp::apply_override(spec, "compute.precision=int8");
  exp::apply_override(spec, "compute.winograd=1");
  EXPECT_EQ(spec.fl.compute.precision, compute::Precision::kInt8);
  EXPECT_TRUE(spec.fl.compute.winograd);
  const std::string json = exp::spec_to_json(spec);
  const exp::ExperimentSpec reparsed = exp::spec_from_json(json);
  EXPECT_TRUE(exp::specs_equal(spec, reparsed));
  EXPECT_EQ(reparsed.fl.compute.precision, compute::Precision::kInt8);
  EXPECT_THROW(exp::apply_override(spec, "compute.precision=int4"),
               exp::SpecError);
}

TEST(ExperimentSpec, ResolvedSpecRoundTripsAndIsIdempotent) {
  exp::ExperimentSpec spec = tiny_spec("jFAT");
  exp::resolve_spec(spec, /*fast=*/false);
  const std::string once = exp::spec_to_json(spec);
  exp::resolve_spec(spec, /*fast=*/false);
  EXPECT_EQ(once, exp::spec_to_json(spec));
  // Resolution under a different FAST setting must not change an
  // already-resolved spec: every auto is concrete.
  exp::resolve_spec(spec, /*fast=*/true);
  EXPECT_EQ(once, exp::spec_to_json(spec));
  const exp::ExperimentSpec reparsed = exp::spec_from_json(once);
  EXPECT_TRUE(exp::specs_equal(spec, reparsed));
}

TEST(ExperimentSpec, NestedAndDottedConfigFormsAgree) {
  exp::ExperimentSpec nested = exp::spec_from_json(
      "{\"fl\": {\"num_clients\": 7, \"sgd\": {\"lr\": 0.125}},"
      " \"comm\": {\"codec\": \"int8\"}}");
  exp::ExperimentSpec dotted = exp::spec_from_json(
      "{\"fl.num_clients\": 7, \"fl.sgd.lr\": 0.125, \"comm.codec\": \"int8\"}");
  EXPECT_TRUE(exp::specs_equal(nested, dotted));
  EXPECT_EQ(nested.fl.num_clients, 7);
  EXPECT_EQ(nested.fl.sgd.lr, 0.125f);
  EXPECT_EQ(nested.fl.comm.codec, comm::CodecKind::kInt8);
}

TEST(ExperimentSpec, DefaultSpecJsonIsPinned) {
  // spec_to_json is the reproduction artifact and the worker handshake: its
  // bytes are a contract, pinned as an FNV-1a golden.
  const std::string json = exp::spec_to_json(exp::ExperimentSpec{});
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : json) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  EXPECT_EQ(h, 0x2d843630b65fdba4ull) << json;
}

TEST(ExperimentSpec, LoadsSpecsFromOtherJsonWriters) {
  // Python's json.dump (ensure_ascii) spells a non-ASCII path as \u escapes.
  const exp::ExperimentSpec spec = exp::spec_from_json(
      "{\"obs\": {\"trace_path\": \"/tmp/r\\u00e9sum\\u00e9.json\"}}");
  EXPECT_EQ(spec.obs_trace_path, "/tmp/r\xc3\xa9sum\xc3\xa9.json");
  // \b, \f and a surrogate pair (U+1F600) decode to raw bytes and UTF-8.
  const exp::FlatJson flat =
      exp::parse_json_object("{\"a\": \"\\b\\f\\ud83d\\ude00\"}");
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0].second, "\b\f\xf0\x9f\x98\x80");
  EXPECT_THROW(exp::parse_json_object("{\"a\": \"\\ud83d\"}"), exp::SpecError);
  EXPECT_THROW(exp::parse_json_object("{\"a\": \"\\u00g9\"}"), exp::SpecError);
  // null is how the writer spells a non-finite number: relaxed mode keeps it,
  // a spec file still rejects it.
  EXPECT_EQ(exp::parse_json_relaxed("{\"v\": [1, null]}").back().second,
            "null");
  EXPECT_THROW(exp::spec_from_json("{\"fl\": {\"lr0\": null}}"),
               exp::SpecError);
}

TEST(ExperimentSpec, ControlCharactersRoundTripEscaped) {
  const std::string nasty = "a\tb\nc\"d\\e\x01" "f\xc3\xa9";
  exp::ExperimentSpec spec;
  spec.obs_trace_path = "/tmp/" + nasty + ".json";
  spec.serve_host = nasty;
  const std::string json = exp::spec_to_json(spec);
  EXPECT_TRUE(exp::specs_equal(spec, exp::spec_from_json(json)));
  // No raw byte below 0x20 inside any string literal.
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string && static_cast<unsigned char>(c) < 0x20)
      FAIL() << "raw control byte at offset " << i;
    if (in_string && c == '\\') ++i;
    else if (c == '"') in_string = !in_string;
  }
}

TEST(JsonWriter, ExpandDepthSetsTheLayout) {
  auto render = [](int depth) {
    exp::JsonWriter w(depth);
    w.begin_object().key("a").begin_array().integer(1).number(0.5);
    w.end_array().key("b").begin_object().key("c").literal("true");
    w.end_object().key("d").begin_array().end_array().end_object();
    return w.take();
  };
  EXPECT_EQ(render(0), "{\"a\":[1,0.5],\"b\":{\"c\":true},\"d\":[]}");
  EXPECT_EQ(render(1),
            "{\n  \"a\": [1,0.5],\n  \"b\": {\"c\":true},\n  \"d\": []\n}");
  EXPECT_EQ(render(exp::JsonWriter::kExpandAll),
            "{\n  \"a\": [\n    1,\n    0.5\n  ],\n  \"b\": {\n"
            "    \"c\": true\n  },\n  \"d\": []\n}");
  EXPECT_EQ(exp::json_escape("\"\\\x1f\t"), "\\\"\\\\\\u001f\\t");
}

TEST(JsonWriter, TextFilesCreateDirectoriesAndReportFailure) {
  const auto dir = std::filesystem::temp_directory_path() / "fp_text_file";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "a" / "b.json").string();
  ASSERT_TRUE(exp::write_text_file(path, "{}\n"));
  std::string text;
  ASSERT_TRUE(exp::read_text_file(path, &text));
  EXPECT_EQ(text, "{}\n");
  // A parent that is a regular file cannot become a directory.
  EXPECT_FALSE(exp::write_text_file(path + "/c.json", "{}"));
  EXPECT_FALSE(exp::read_text_file((dir / "missing.json").string(), &text));
  std::filesystem::remove_all(dir);
}

TEST(ExperimentSpec, UnknownKeysAndValuesSuggestNearestName) {
  exp::ExperimentSpec spec;
  try {
    exp::set_key(spec, "fl.num_client", "5");
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("fl.num_clients"), std::string::npos)
        << e.what();
  }
  try {
    exp::set_key(spec, "method", "FedProfet");
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("FedProphet"), std::string::npos)
        << e.what();
  }
  try {
    exp::set_key(spec, "fl.scheduler", "asink");
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("async"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(exp::set_key(spec, "fl.batch_size", "sixteen"), exp::SpecError);
  EXPECT_THROW(exp::apply_json(spec, "{\"fl\": [1, 2]}"), exp::SpecError);
  // Out-of-range integers must fail loudly, never silently clamp — a clamped
  // value would break the exported spec's exact-reproduction guarantee.
  EXPECT_THROW(exp::set_key(spec, "fl.seed", "-1"), exp::SpecError);
  EXPECT_THROW(exp::set_key(spec, "fl.batch_size", "99999999999999999999"),
               exp::SpecError);
  EXPECT_THROW(exp::set_key(spec, "eval.pgd_steps", "3000000000"),
               exp::SpecError);
}

TEST(ExperimentSpec, ShippedCommCellConfigMatchesScenarioBuilder) {
  // The committed reproduction artifact for one bench_comm cell must equal
  // the spec bench_comm builds programmatically (resolved at full scale).
  exp::ExperimentSpec cell =
      bench::comm_scenario_spec("int8", "sync", /*sync_rounds=*/12);
  exp::resolve_spec(cell, /*fast=*/false);

  const std::string path =
      std::string(FP_SOURCE_DIR) + "/configs/bench_comm_int8_sync.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const exp::ExperimentSpec from_file = exp::spec_from_json(text);
  EXPECT_TRUE(exp::specs_equal(cell, from_file))
      << "configs/bench_comm_int8_sync.json drifted from "
         "bench_common::comm_scenario_spec; regenerate with\n"
         "  fp_run --config configs/bench_comm_int8_sync.json --dump-spec "
         "configs/bench_comm_int8_sync.json";
}

TEST(RunArtifacts, ExportsTrajectoryAndResolvedSpec) {
  const auto dir = std::filesystem::temp_directory_path() / "fp_exp_artifacts";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(setenv("FP_BENCH_OUT", dir.c_str(), 1), 0);

  auto setup = exp::build_setup(tiny_spec("jFAT"));
  const exp::RunResult r = exp::run_on_setup(setup, "tiny-exp");
  unsetenv("FP_BENCH_OUT");

  ASSERT_FALSE(r.exported_csv.empty());
  EXPECT_GT(std::filesystem::file_size(r.exported_csv), 0u);
  const std::string spec_path = (dir / "tiny-exp.spec.json").string();
  ASSERT_TRUE(std::filesystem::exists(spec_path));
  std::ifstream in(spec_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The exported spec is fully resolved and reproduces the run's config.
  const exp::ExperimentSpec reparsed = exp::spec_from_json(text);
  EXPECT_TRUE(exp::specs_equal(reparsed, setup.spec));
  std::filesystem::remove_all(dir);
}

TEST(Registries, ModelWorkloadSchedulerCodecEntriesResolve) {
  EXPECT_EQ(exp::model_registry().resolve("tiny_vgg")({16, 4, 4}).atoms.size(),
            exp::build_setup(tiny_spec("jFAT")).model.atoms.size());
  EXPECT_THROW(exp::model_registry().resolve("tiny_vg"), exp::SpecError);
  EXPECT_EQ(exp::workload_registry().resolve("caltech").paper_batch, 32);
  EXPECT_EQ(exp::scheduler_registry().resolve("async"),
            fed::SchedulerKind::kAsync);
  // Codec entries build the same wire codec the engine channel would.
  const auto& entry = exp::codec_registry().resolve("fp16");
  comm::CommConfig ccfg;
  const auto codec = entry.make(ccfg);
  ASSERT_NE(codec, nullptr);
  EXPECT_EQ(codec->kind(), comm::CodecKind::kFp16);
}

}  // namespace
}  // namespace fp
