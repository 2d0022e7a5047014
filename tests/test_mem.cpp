// The memory subsystem (src/mem/): arena allocator, liveness planner,
// activation checkpointing, and budget-enforced client execution.
//
// The load-bearing guarantees:
//  * the arena's live/high-water accounting is exact, allocations are
//    64-byte aligned, and buffers that outlive their scope stay valid;
//  * planner intervals have the textbook first-use/last-use structure, the
//    offset assignment never overlaps two live intervals, plans are
//    deterministic for any FP_NUM_THREADS, and the idealized plan never
//    exceeds the analytic sys::module_train_mem_bytes;
//  * checkpointed training produces BIT-IDENTICAL parameters to plain
//    training while measurably lowering the training-time memory peak;
//  * the engine's budget enforcement reports peaks/violations without
//    changing the aggregates (same hash with budgets off, on, and on with
//    checkpointing).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "baselines/local_at.hpp"
#include "baselines/whole_model.hpp"
#include "blob_hash.hpp"
#include "cascade/partitioner.hpp"
#include "cascade/trainer.hpp"
#include "core/parallel.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "fed/env.hpp"
#include "mem/arena.hpp"
#include "mem/planner.hpp"
#include "models/zoo.hpp"

namespace fp {
namespace {

using test::fnv1a;

// ---- arena ------------------------------------------------------------------

TEST(Arena, BumpAllocationAlignsAndTracksHighWater) {
  auto* a = new mem::Arena(1 << 16);
  void* p1 = a->allocate(100);
  void* p2 = a->allocate(200);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % mem::kAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p2) % mem::kAlign, 0u);
  EXPECT_EQ(a->live_bytes(), 300);
  EXPECT_EQ(a->peak_bytes(), 300);
  a->deallocate(p2, 200);
  EXPECT_EQ(a->live_bytes(), 100);
  EXPECT_EQ(a->peak_bytes(), 300);  // high-water sticks
  a->deallocate(p1, 100);
  EXPECT_EQ(a->live_bytes(), 0);
  a->release();
}

TEST(Arena, LifoRewindReusesSlabWithoutOverflow) {
  auto* a = new mem::Arena(1 << 14);  // 16 KB slab
  // 1000 x 8 KB through a 16 KB slab only works if frees rewind the bump
  // pointer; any leak to the heap shows up in overflow_bytes.
  for (int i = 0; i < 1000; ++i) {
    void* p = a->allocate(8 << 10);
    a->deallocate(p, 8 << 10);
  }
  EXPECT_EQ(a->overflow_bytes(), 0);
  EXPECT_EQ(a->live_bytes(), 0);
  // Out-of-order frees must also be reclaimed once the top frees.
  void* p1 = a->allocate(4 << 10);
  void* p2 = a->allocate(4 << 10);
  a->deallocate(p1, 4 << 10);  // not the top: deferred
  a->deallocate(p2, 4 << 10);  // top: rewinds over both
  void* p3 = a->allocate(12 << 10);
  EXPECT_EQ(a->overflow_bytes(), 0);
  a->deallocate(p3, 12 << 10);
  a->release();
}

TEST(Arena, FreedBlocksBelowTheTopAreReused) {
  auto* a = new mem::Arena(1 << 14);  // 16 KB slab
  // One block stays live while a layer-style cache is replaced 1000 times,
  // the new block allocated before the old one is freed. Without reuse of
  // freed blocks below the top, the bump pointer walks up the slab and every
  // later allocation takes the heap path (1,363,968 overflow bytes).
  void* keep = a->allocate(4 << 10);
  void* cache = a->allocate(4 << 10);
  for (int i = 0; i < 1000; ++i) {
    void* fresh = a->allocate(4 << 10);
    a->deallocate(cache, 4 << 10);
    cache = fresh;
  }
  EXPECT_EQ(a->overflow_bytes(), 0);
  EXPECT_EQ(a->live_bytes(), 8 << 10);
  EXPECT_EQ(a->peak_bytes(), 12 << 10);
  // Freed neighbours coalesce: two adjacent 4 KB holes serve one 8 KB block.
  a->deallocate(cache, 4 << 10);
  a->deallocate(keep, 4 << 10);
  void* p1 = a->allocate(4 << 10);
  void* p2 = a->allocate(4 << 10);
  void* p3 = a->allocate(4 << 10);
  a->deallocate(p1, 4 << 10);
  a->deallocate(p2, 4 << 10);
  void* big = a->allocate(8 << 10);
  EXPECT_EQ(a->overflow_bytes(), 0);
  a->deallocate(big, 8 << 10);
  a->deallocate(p3, 4 << 10);
  EXPECT_EQ(a->live_bytes(), 0);
  a->release();
}

TEST(Arena, OversizedRequestsFallBackToHeap) {
  auto* a = new mem::Arena(4 << 10);
  void* big = a->allocate(1 << 20);
  EXPECT_EQ(a->overflow_bytes(), 1 << 20);
  EXPECT_EQ(a->live_bytes(), 1 << 20);
  a->deallocate(big, 1 << 20);
  EXPECT_EQ(a->live_bytes(), 0);
  a->release();
}

TEST(Arena, ScopeTracksTensorAllocations) {
  ASSERT_FALSE(mem::scope_active());
  std::int64_t peak = 0;
  {
    mem::ClientMemScope scope(mem::Budget{1 << 20});
    EXPECT_TRUE(mem::scope_active());
    ASSERT_NE(mem::current_budget(), nullptr);
    Tensor t({64, 64});
    EXPECT_GE(scope.live_bytes(), 64 * 64 * 4);
    {
      Tensor u({128, 128});
      EXPECT_GE(scope.live_bytes(), (64 * 64 + 128 * 128) * 4);
    }
    peak = scope.peak_bytes();
    EXPECT_GE(peak, (64 * 64 + 128 * 128) * 4);
    EXPECT_LT(scope.live_bytes(), peak);  // u was freed
  }
  EXPECT_FALSE(mem::scope_active());
  EXPECT_EQ(mem::current_budget(), nullptr);
}

TEST(Arena, AllocationsOutlivingTheirScopeStayValid) {
  // A payload tensor escaping train_client (e.g. the sliced sub-model of the
  // partial-training baselines) is freed after the scope died, possibly on
  // another thread. The refcounted arena must keep the memory valid.
  Tensor escaped;
  {
    mem::ClientMemScope scope(mem::Budget{1 << 20});
    escaped = Tensor::full({32, 32}, 3.0f);
  }
  EXPECT_EQ(escaped[0], 3.0f);
  escaped = Tensor();  // frees into the dead scope's arena: must not crash
}

// ---- planner ----------------------------------------------------------------

sys::ModelSpec hand_built_model() {
  sys::ModelSpec m;
  m.name = "hand";
  m.input = {3, 8, 8};
  m.num_classes = 4;
  m.atoms.push_back({"a1",
                     {sys::LayerSpec::conv2d(3, 8, 3, 1, 1), sys::LayerSpec::relu()},
                     false,
                     {}});
  m.atoms.push_back({"a2",
                     {sys::LayerSpec::conv2d(8, 8, 3, 1, 1), sys::LayerSpec::relu()},
                     false,
                     {}});
  m.atoms.push_back({"a3",
                     {sys::LayerSpec::flatten(), sys::LayerSpec::linear(8 * 8 * 8, 4)},
                     false,
                     {}});
  return m;
}

const mem::Interval* find_interval(const mem::MemPlan& plan,
                                   const std::string& label) {
  for (const auto& iv : plan.intervals)
    if (iv.label == label) return &iv;
  return nullptr;
}

TEST(Planner, LivenessIntervalsOnHandBuiltGraph) {
  const auto m = hand_built_model();
  mem::PlanRequest req;
  req.atom_begin = 0;
  req.atom_end = 3;
  req.batch_size = 2;
  req.include_runtime_scratch = false;
  const auto plan = mem::plan_module_memory(m, req);

  // 6 layer units: timeline = 6 forward + 1 loss + 6 backward steps.
  ASSERT_EQ(plan.timeline_steps, 13);
  // Unit u's activation lives from its forward step u to its backward step
  // 2U - u (U = 6): the textbook first-use/last-use envelope.
  const auto* first = find_interval(plan, "a1/0:cache");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->first_use, 0);
  EXPECT_EQ(first->last_use, 12);
  EXPECT_EQ(first->bytes, 2 * 8 * 8 * 8 * 4);  // [B, 8, 8, 8] float32
  const auto* mid = find_interval(plan, "a2/0:cache");
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->first_use, 2);
  EXPECT_EQ(mid->last_use, 10);
  const auto* input = find_interval(plan, "module_input");
  ASSERT_NE(input, nullptr);
  EXPECT_EQ(input->first_use, 0);
  EXPECT_EQ(input->last_use, 12);
  const auto* params = find_interval(plan, "param_state");
  ASSERT_NE(params, nullptr);
  EXPECT_EQ(params->bytes, 3 * m.total_params() * 4);
  EXPECT_GE(plan.peak_bytes, plan.liveness_peak_bytes);
}

TEST(Planner, AssignedOffsetsNeverOverlapLiveIntervals) {
  const auto m = models::tiny_vgg_spec(16, 4, 4);
  for (const bool runtime : {false, true}) {
    for (const bool ckpt : {false, true}) {
      mem::PlanRequest req;
      req.atom_begin = 0;
      req.atom_end = m.atoms.size();
      req.batch_size = 8;
      req.include_runtime_scratch = runtime;
      if (ckpt) req.checkpoint_starts = {0, 2};
      const auto plan = mem::plan_module_memory(m, req);
      for (std::size_t i = 0; i < plan.intervals.size(); ++i) {
        const auto& a = plan.intervals[i];
        ASSERT_GE(a.offset, 0);
        ASSERT_LE(a.offset + a.bytes, plan.peak_bytes);
        for (std::size_t j = i + 1; j < plan.intervals.size(); ++j) {
          const auto& b = plan.intervals[j];
          const bool time_overlap =
              a.first_use <= b.last_use && b.first_use <= a.last_use;
          const bool space_overlap =
              a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
          EXPECT_FALSE(time_overlap && space_overlap)
              << a.label << " and " << b.label << " overlap (runtime=" << runtime
              << ", ckpt=" << ckpt << ")";
        }
      }
    }
  }
}

TEST(Planner, IdealizedPlanNeverExceedsAnalyticRequirement) {
  for (const auto& m :
       {models::tiny_vgg_spec(16, 4, 4), models::vgg16_spec(32, 10)}) {
    const std::int64_t batch = 16;
    const auto full = sys::module_train_mem_bytes(m, 0, m.atoms.size(), batch,
                                                  false);
    const auto p = cascade::partition_model(m, full / 5, batch);
    for (std::size_t i = 0; i < p.num_modules(); ++i) {
      EXPECT_LE(cascade::module_planned_peak_bytes(m, p, i),
                cascade::module_mem_bytes(m, p, i))
          << m.name << " module " << i;
    }
  }
}

TEST(Planner, PlanIsDeterministicAcrossThreadCounts) {
  const auto m = models::tiny_vgg_spec(16, 4, 6);
  mem::PlanRequest req;
  req.atom_begin = 0;
  req.atom_end = m.atoms.size();
  req.batch_size = 16;
  req.checkpoint_starts = {0, 3};
  mem::MemPlan plans[2];
  const int threads[2] = {1, 4};
  for (int r = 0; r < 2; ++r) {
    core::set_num_threads(threads[r]);
    plans[r] = mem::plan_module_memory(m, req);
  }
  core::set_num_threads(1);
  EXPECT_EQ(plans[0].peak_bytes, plans[1].peak_bytes);
  ASSERT_EQ(plans[0].intervals.size(), plans[1].intervals.size());
  for (std::size_t i = 0; i < plans[0].intervals.size(); ++i) {
    EXPECT_EQ(plans[0].intervals[i].label, plans[1].intervals[i].label);
    EXPECT_EQ(plans[0].intervals[i].offset, plans[1].intervals[i].offset);
  }
}

TEST(Planner, CheckpointingLowersPlannedPeak) {
  const auto m = models::tiny_vgg_spec(16, 4, 6);
  mem::PlanRequest req;
  req.atom_begin = 0;
  req.atom_end = m.atoms.size();
  req.batch_size = 16;
  const auto plain = mem::plan_module_memory(m, req);
  EXPECT_EQ(plain.recompute_fwd_frac, 0.0);
  const auto starts = mem::choose_checkpoint_starts(m, req, plain.peak_bytes / 2);
  ASSERT_FALSE(starts.empty()) << "no segmentation proposed";
  req.checkpoint_starts = starts;
  const auto ckpt = mem::plan_module_memory(m, req);
  EXPECT_LT(ckpt.peak_bytes, plain.peak_bytes);
  EXPECT_GT(ckpt.recompute_fwd_frac, 0.0);
  EXPECT_LE(ckpt.recompute_fwd_frac, 1.0);
}

// ---- partitioner: oversized-atom regression ---------------------------------

TEST(Partitioner, OversizedAtomSurfacesSwapCost) {
  // One atom dwarfs Rmin: the greedy packing must give it its own module and
  // surface the swap traffic instead of silently pretending it fits.
  sys::ModelSpec m;
  m.name = "oversized";
  m.input = {3, 32, 32};
  m.num_classes = 10;
  m.atoms.push_back({"small",
                     {sys::LayerSpec::conv2d(3, 4, 3, 1, 1), sys::LayerSpec::relu()},
                     false,
                     {}});
  // The huge atom pools its output down so only ITS OWN activations are
  // oversized (the following head module stays tiny).
  m.atoms.push_back({"huge",
                     {sys::LayerSpec::conv2d(4, 256, 3, 1, 1), sys::LayerSpec::relu(),
                      sys::LayerSpec::global_avg_pool()},
                     false,
                     {}});
  m.atoms.push_back({"head",
                     {sys::LayerSpec::flatten(), sys::LayerSpec::linear(256, 10)},
                     false,
                     {}});
  const std::int64_t batch = 16;
  const std::int64_t huge_mem = sys::module_train_mem_bytes(m, 1, 2, batch, true);
  const std::int64_t rmin = huge_mem / 4;

  sys::TrainCostConfig cfg;
  cfg.pgd_steps = 3;
  const auto p = cascade::partition_model(m, rmin, batch, &cfg);
  ASSERT_EQ(p.oversized.size(), 1u);
  const auto& ov = p.oversized.front();
  EXPECT_EQ(p.modules[ov.module].num_atoms(), 1u);
  EXPECT_EQ(ov.mem_bytes, cascade::module_mem_bytes(m, p, ov.module));
  EXPECT_EQ(ov.excess_bytes, ov.mem_bytes - rmin);
  // Every forward and backward of the PGD-3 step (3 attack passes + update)
  // traverses swapped: 2 * (pgd + 1) traversals.
  EXPECT_EQ(ov.swap_traversals, 2 * (cfg.pgd_steps + 1));
  EXPECT_GT(ov.swap_bytes, 0.0);
  EXPECT_NE(cascade::format_partition(m, p).find("exceeds Rmin"),
            std::string::npos);

  // Roomy Rmin: nothing oversized (the paper's regime).
  const auto ok = cascade::partition_model(m, huge_mem * 2, batch);
  EXPECT_TRUE(ok.oversized.empty());
}

// ---- checkpointed training --------------------------------------------------

data::TrainTest mem_tiny_data() {
  data::SyntheticConfig dcfg = data::synth_cifar_config();
  dcfg.train_size = 128;
  dcfg.test_size = 32;
  dcfg.num_classes = 4;
  return data::make_synthetic(dcfg);
}

TEST(Checkpointing, GradientsAndParametersBitIdenticalToPlain) {
  const auto spec = models::tiny_vgg_spec(16, 4, 6);
  const auto data = mem_tiny_data();

  auto run = [&](const std::vector<std::size_t>& starts,
                 std::int64_t* peak) -> nn::ParamBlob {
    Rng init(99);
    models::BuiltModel model(spec, init);
    if (!starts.empty()) model.set_checkpoint_segments(starts);
    nn::Sgd opt(model.parameters_range(0, model.num_atoms()),
                model.gradients_range(0, model.num_atoms()),
                nn::SgdConfig{0.05f, 0.9f, 1e-4f});
    baselines::LocalAtConfig at;
    at.pgd_steps = 2;
    Rng data_rng(5), train_rng(7);
    data::BatchIterator batches(data.train, 16, data_rng);
    mem::ClientMemScope scope(mem::Budget{0});  // measure-only
    for (int it = 0; it < 3; ++it)
      baselines::at_train_batch(model, opt, batches.next(), at, train_rng);
    if (peak) *peak = scope.peak_bytes();
    return model.save_all();
  };

  std::int64_t plain_peak = 0, ckpt_peak = 0;
  const auto plain = run({}, &plain_peak);
  const auto ckpt = run({0, 2, 4}, &ckpt_peak);
  ASSERT_EQ(plain.size(), ckpt.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    ASSERT_EQ(plain[i], ckpt[i]) << "parameters diverged at element " << i;
  // The drop-and-recompute execution must measurably lower the peak.
  EXPECT_LT(ckpt_peak, plain_peak);
  EXPECT_GT(ckpt_peak, 0);
}

TEST(Checkpointing, CascadeMidModuleTrainingIsBitIdentical) {
  // Mid-cascade block (frozen prefix + aux head + feature-space PGD), the
  // FedProphet client path. The checkpointed run executes under a scope
  // (cache-free prefix) — gradients must still match plain execution.
  const auto spec = models::tiny_vgg_spec(16, 4, 6);
  const auto data = mem_tiny_data();
  const auto full =
      sys::module_train_mem_bytes(spec, 0, spec.atoms.size(), 16, false);

  auto run = [&](bool ckpt) -> nn::ParamBlob {
    Rng init(123);
    models::BuiltModel model(spec, init);
    cascade::CascadeState cascade(
        model, cascade::partition_model(spec, full / 3, 16), init);
    const std::size_t m = 1;  // a middle module with a frozen prefix
    EXPECT_GE(cascade.num_modules(), 3u) << "partition too coarse for test";
    cascade::LocalTrainConfig tcfg;
    tcfg.module_begin = m;
    tcfg.module_end = m + 1;
    tcfg.eps_in = 0.05f;
    tcfg.pgd_steps = 2;
    tcfg.sgd = nn::SgdConfig{0.05f, 0.9f, 1e-4f};
    cascade::CascadeLocalTrainer trainer(cascade, tcfg);
    const auto& mod = cascade.partition().modules[m];
    std::optional<mem::ClientMemScope> scope;
    if (ckpt) {
      scope.emplace(mem::Budget{0});
      if (mod.end - mod.begin >= 2)
        model.set_checkpoint_segments({mod.begin, mod.begin + 1});
    }
    Rng data_rng(5), train_rng(7);
    data::BatchIterator batches(data.train, 16, data_rng);
    for (int it = 0; it < 2; ++it) trainer.train_batch(batches.next(), train_rng);
    nn::ParamBlob blob = model.save_all();
    const auto aux = cascade.save_aux(m);
    blob.insert(blob.end(), aux.begin(), aux.end());
    return blob;
  };

  const auto plain = run(false);
  const auto ckpt = run(true);
  ASSERT_EQ(plain.size(), ckpt.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    ASSERT_EQ(plain[i], ckpt[i]) << "cascade parameters diverged at " << i;
}

// ---- engine budget enforcement ----------------------------------------------

fed::FlConfig mem_tiny_fl() {
  fed::FlConfig fl;
  fl.num_clients = 6;
  fl.clients_per_round = 3;
  fl.local_iters = 2;
  fl.batch_size = 16;
  fl.pgd_steps = 2;
  fl.rounds = 2;
  fl.lr0 = 0.05f;
  fl.sgd.lr = 0.05f;
  return fl;
}

struct EngineRun {
  std::uint64_t hash = 0;
  std::int64_t peak = 0;
  std::size_t over_budget = 0;
  double access_s = 0.0;
  double compute_s = 0.0;
};

EngineRun run_jfat(const data::TrainTest& data, mem::MemConfig mc) {
  auto fl = mem_tiny_fl();
  const auto tiny = models::tiny_vgg_spec(16, 4, 4);
  const auto paper = models::vgg16_spec(32, 10);
  // Map measured trainable-model bytes onto the paper-shape pricing scale
  // (the DESIGN.md §1 convention the benches use).
  mc.device_mem_scale =
      static_cast<double>(sys::module_train_mem_bytes(
          tiny, 0, tiny.atoms.size(), fl.batch_size, false)) /
      static_cast<double>(sys::module_train_mem_bytes(
          paper, 0, paper.atoms.size(), fl.batch_size, false));
  fl.mem = mc;
  fed::FedEnvConfig ecfg;
  ecfg.fl = fl;
  auto env = fed::make_env(data, ecfg, paper);
  baselines::WholeModelConfig cfg;
  cfg.fl = fl;
  cfg.family = {tiny};
  baselines::WholeModelFAT algo(env, cfg);
  algo.run();
  EngineRun r;
  r.hash = fnv1a(algo.global_model().save_all());
  r.peak = algo.total_stats().peak_mem_bytes;
  r.over_budget = algo.total_stats().over_budget;
  r.access_s = algo.sim_time().access_s;
  r.compute_s = algo.sim_time().compute_s;
  return r;
}

TEST(BudgetEnforcement, ReportsPeaksAndViolationsWithoutChangingAggregates) {
  const auto data = mem_tiny_data();

  // Baseline: memory plane off — the historical behaviour.
  const auto off = run_jfat(data, mem::MemConfig{});
  EXPECT_EQ(off.peak, 0);

  // Measure-only: same aggregates, same clocks, now with a measured peak.
  mem::MemConfig measure;
  measure.measure = true;
  const auto measured = run_jfat(data, measure);
  EXPECT_EQ(measured.hash, off.hash) << "measurement changed the aggregates";
  EXPECT_EQ(measured.access_s, off.access_s);
  EXPECT_EQ(measured.compute_s, off.compute_s);
  EXPECT_GT(measured.peak, 0);

  // Enforced budget at half the measured peak, no checkpointing: every
  // client overruns — reported, not fatal — and the overrun is priced as
  // swap traffic (access time grows).
  mem::MemConfig enforce;
  enforce.enforce_budget = true;
  enforce.checkpointing = false;
  enforce.budget_override_bytes = measured.peak / 2;
  const auto over = run_jfat(data, enforce);
  EXPECT_EQ(over.hash, off.hash) << "budget enforcement changed the aggregates";
  EXPECT_GT(over.over_budget, 0u);
  EXPECT_GT(over.access_s, off.access_s) << "overrun not priced as swap";

  // Same budget with checkpointing: bit-identical aggregates (recompute is
  // exact), measured peak within budget, no violations, and the recompute
  // priced as extra compute rather than swap.
  mem::MemConfig ckpt = enforce;
  ckpt.checkpointing = true;
  const auto fitted = run_jfat(data, ckpt);
  EXPECT_EQ(fitted.hash, off.hash) << "checkpointing changed the aggregates";
  EXPECT_LE(fitted.peak, enforce.budget_override_bytes)
      << "checkpointed client exceeded its budget";
  EXPECT_EQ(fitted.over_budget, 0u);
  EXPECT_LT(fitted.peak, measured.peak);
  EXPECT_GT(fitted.compute_s, off.compute_s) << "recompute FLOPs not priced";
}

}  // namespace
}  // namespace fp
