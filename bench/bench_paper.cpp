// The paper's tables and figures, one per name: `bench_paper <name>`
// (`--help` lists them). The accuracy plane (table1-3, fig8-10) trains spec
// deltas through exp::build_setup and the method registry; the systems plane
// (the rest) is the cost model on the paper's exact shapes, and its output
// is pinned byte for byte against bench/expected/ (DESIGN.md §1).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cascade/partitioner.hpp"
#include "fed/env.hpp"
#include "fedprophet/coordinator.hpp"
#include "fedprophet/fedprophet.hpp"
#include "models/zoo.hpp"
#include "nn/quantize.hpp"
#include "sysmodel/cost_model.hpp"

namespace fp::bench {
namespace {

using sys::Heterogeneity;

const char* const kWorkloads[] = {"cifar", "caltech"};
const Heterogeneity kFleets[] = {Heterogeneity::kBalanced,
                                 Heterogeneity::kUnbalanced};

const char* fleet_name(Heterogeneity het) {
  return het == Heterogeneity::kBalanced ? "balanced" : "unbalanced";
}

const char* display_name(const char* workload) {
  return exp::workload_registry().resolve(workload).display_name.c_str();
}

/// The default bench scenario of one workload x fleet cell.
exp::ExperimentSpec cell_spec(const char* workload,
                              Heterogeneity het = Heterogeneity::kBalanced) {
  exp::ExperimentSpec spec;
  spec.workload = workload;
  spec.heterogeneity = fleet_name(het);
  return spec;
}

/// Whole-model training memory (no swapping, no auxiliary head).
std::int64_t full_train_mem(const sys::ModelSpec& spec, std::int64_t batch) {
  return sys::module_train_mem_bytes(spec, 0, spec.atoms.size(), batch, false);
}

/// Training memory of a partition's largest module.
std::int64_t largest_module_mem(const sys::ModelSpec& spec,
                                const cascade::Partition& part) {
  std::int64_t peak = 0;
  for (std::size_t m = 0; m < part.num_modules(); ++m)
    peak = std::max(peak, cascade::module_mem_bytes(spec, part, m));
  return peak;
}

// ---- accuracy plane ---------------------------------------------------------

/// Trains one method on `s` (continuing its env's device streams) with the
/// bench round counts, evaluates the three paper metrics, and prints the
/// [comm]/[mem]/[net] lines.
exp::RunResult run_method(const std::string& name, exp::Setup& s,
                          std::int64_t rounds_other = 16,
                          std::int64_t rounds_jfat = 12) {
  s.spec.method = name;
  s.spec.fl.rounds = scaled(name == "jFAT" ? rounds_jfat : rounds_other);
  s.spec.fp_rounds_per_module = scaled(5) + 1;
  exp::RunResult result = exp::run_on_setup(s);
  exp::print_comm_line(result, s.spec.fl);
  exp::print_mem_line(result, s);
  exp::print_net_line(result);
  return result;
}

/// One FedProphet cell of Figures 8-10: the spec's setup and its
/// registry-built run, with the cascade readouts reachable through `algo`.
struct FedProphetCell {
  explicit FedProphetCell(exp::ExperimentSpec spec)
      : setup(exp::build_setup(std::move(spec))),
        run(exp::method_registry().resolve("FedProphet")(setup)),
        algo(dynamic_cast<fedprophet::FedProphet&>(*run.algo)) {}
  FedProphetCell(const FedProphetCell&) = delete;  // `run` points into `setup`
  FedProphetCell& operator=(const FedProphetCell&) = delete;

  exp::Setup setup;
  exp::MethodRun run;
  fedprophet::FedProphet& algo;
};

// Table 1 (motivation): federated adversarial training with a small model,
// a large model, and a partial-training sub-model of the large model
// ("Large-PT", FedRolex). The paper's point: FAT needs the large model for
// robustness, but naive sub-model training forfeits the gain.
void table1() {
  std::printf("=== Table 1: FAT accuracy vs model size (federated, PGD-AT) ===\n");
  std::printf("Paper shape: Large > Small ~ Large-PT on both metrics.\n\n");
  for (const char* workload : kWorkloads) {
    auto setup = exp::build_setup(cell_spec(workload));
    std::printf("-- %s --\n%-16s %12s %12s\n", display_name(workload),
                "model (mem)", "Clean Acc.", "Adv. Acc.");

    // Small model: jFAT over the TinyCNN (fits everywhere) — the same
    // scenario with the backbone overridden.
    exp::ExperimentSpec small_spec = cell_spec(workload);
    small_spec.model = "tiny_cnn";
    auto small = exp::build_setup(std::move(small_spec));
    const auto r_small = run_method("jFAT", small, 36, 36);
    const auto mem_small =
        full_train_mem(small.model, setup.spec.fl.batch_size);

    // Large model: jFAT over the full backbone (swaps on weak clients).
    const auto r_large = run_method("jFAT", setup, 36, 36);

    // Large-PT: FedRolex sub-model training of the large backbone.
    const auto r_pt = run_method("FedRolex-AT", setup, 36, 36);

    const double ratio = static_cast<double>(setup.full_mem) /
                         static_cast<double>(mem_small);
    std::printf("%-16s %11.1f%% %11.1f%%\n", "Small (1x)",
                100 * r_small.metrics.clean_acc, 100 * r_small.metrics.pgd_acc);
    char label[32];
    std::snprintf(label, sizeof(label), "Large (%.1fx)", ratio);
    std::printf("%-16s %11.1f%% %11.1f%%\n", label,
                100 * r_large.metrics.clean_acc, 100 * r_large.metrics.pgd_acc);
    std::printf("%-16s %11.1f%% %11.1f%%\n\n", "Large-PT (1x)",
                100 * r_pt.metrics.clean_acc, 100 * r_pt.metrics.pgd_acc);
  }
}

// Table 2 (main result): Clean / PGD / AutoAttackLite accuracy of all eight
// methods on both synthetic workloads under balanced and unbalanced
// systematic heterogeneity.
//
// Expected shape (paper): FedProphet matches or beats jFAT on robustness and
// approaches it on clean accuracy; KD baselines collapse; partial-training
// baselines sit in between; FedRBN has the best clean but weak robustness.
void table2() {
  // The full method registry, in canonical order.
  const auto methods = exp::method_registry().names();
  std::printf("=== Table 2: Clean / PGD / AA accuracy (all methods) ===\n\n");
  for (const char* workload : kWorkloads) {
    for (const auto het : kFleets) {
      std::printf("-- %s, %s --\n", display_name(workload), fleet_name(het));
      std::printf("%-14s %11s %11s %11s\n", "method", "Clean Acc.", "PGD Acc.",
                  "AA Acc.");
      for (const auto& name : methods) {
        auto setup = exp::build_setup(cell_spec(workload, het));
        const auto r = run_method(name, setup);
        std::printf("%-14s %10.1f%% %10.1f%% %10.1f%%\n", r.name.c_str(),
                    100 * r.metrics.clean_acc, 100 * r.metrics.pgd_acc,
                    100 * r.metrics.aa_acc);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
}

// Table 3 (ablation): FedProphet with/without Adaptive Perturbation
// Adjustment (APA) and Differentiated Module Assignment (DMA).
//
// Expected shape (paper): removing APA raises clean accuracy but costs
// robustness (worse utility-robustness balance); removing DMA hurts both,
// most visibly on the harder many-class workload.
void table3() {
  struct Combo {
    bool apa, dma;
  };
  const Combo combos[] = {{true, true}, {false, true}, {true, false},
                          {false, false}};
  std::printf("=== Table 3: APA / DMA ablation ===\n\n");
  for (const char* workload : kWorkloads) {
    // Balanced fleet only at bench scale; the unbalanced column follows the
    // same protocol (EXPERIMENTS.md).
    std::printf("-- %s, %s --\n", display_name(workload),
                fleet_name(Heterogeneity::kBalanced));
    std::printf("%5s %5s %12s %12s\n", "APA", "DMA", "Clean Acc.", "Adv. Acc.");
    for (const auto combo : combos) {
      // Each ablation cell is a spec delta: fp.apa / fp.dma on an
      // otherwise-default FedProphet scenario.
      exp::ExperimentSpec spec = cell_spec(workload);
      spec.fp_apa = combo.apa;
      spec.fp_dma = combo.dma;
      auto setup = exp::build_setup(std::move(spec));
      const auto r = run_method("FedProphet", setup);
      std::printf("%5s %5s %11.1f%% %11.1f%%\n", combo.apa ? "yes" : "no",
                  combo.dma ? "yes" : "no", 100 * r.metrics.clean_acc,
                  100 * r.metrics.pgd_acc);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
}

// Figure 8 (ablation): influence of the strong-convexity hyperparameter mu
// on FedProphet's adversarial accuracy and on the measured perturbation
// magnitude d* = E[max ||Delta z_1||] of the first module's output.
//
// Expected shape (paper + Lemma 1): ||Delta z_1|| decreases monotonically as
// mu grows; adversarial accuracy is flat-to-slightly-rising for small mu and
// collapses when mu is so large that the regularizer distracts training.
void fig8() {
  const float mus[] = {1e-7f, 1e-5f, 1e-3f};
  std::printf("=== Figure 8: strong-convexity sweep ===\n\n");
  for (const char* workload : kWorkloads) {
    // Balanced fleet only at bench scale; the unbalanced column follows the
    // same protocol (EXPERIMENTS.md).
    std::printf("-- %s, %s --\n", display_name(workload),
                fleet_name(Heterogeneity::kBalanced));
    std::printf("%10s %14s %20s\n", "mu", "Adv. Acc.", "pert. l2 norm d*_1");
    for (const float mu : mus) {
      exp::ExperimentSpec spec = cell_spec(workload);
      spec.fp_rounds_per_module = fast_mode() ? 3 : 6;
      spec.fp_mu = mu;
      FedProphetCell cell(std::move(spec));
      cell.run.train();
      const double adv =
          attack::evaluate_pgd(cell.algo.global_model(), cell.setup.env.test,
                               exp::eval_config(cell.setup.spec));
      std::printf("%10.0e %13.1f%% %20.3f\n", mu, 100 * adv,
                  cell.algo.stages().front().mean_dz);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
}

// Figure 9 (ablation): number of modules and clean/adversarial accuracy as
// the memory budget Rmin varies from 20% of the full-model requirement to
// beyond it.
//
// Expected shape (paper): the module count falls to 1 as Rmin approaches
// Rmax while accuracy stays roughly flat — the inconsistency-reduction
// machinery makes FedProphet insensitive to how finely it is partitioned.
void fig9() {
  const double fracs[] = {0.2, 0.4, 0.7, 1.05};
  std::printf("=== Figure 9: Rmin sweep (balanced) ===\n\n");
  for (const char* workload : kWorkloads) {
    std::printf("-- %s --\n", display_name(workload));
    std::printf("%10s %9s %12s %12s\n", "Rmin/Rmax", "modules", "Clean Acc.",
                "Adv. Acc.");
    for (const double frac : fracs) {
      exp::ExperimentSpec spec = cell_spec(workload);
      spec.fp_rounds_per_module = fast_mode() ? 3 : 6;
      spec.fp_rmin_frac = frac;
      FedProphetCell cell(std::move(spec));
      const auto num_modules = cell.algo.partition().num_modules();
      cell.run.train();
      const auto r = cell.run.evaluate(exp::eval_config(cell.setup.spec));
      std::printf("%10.2f %9zu %11.1f%% %11.1f%%\n", frac, num_modules,
                  100 * r.clean_acc, 100 * r.pgd_acc);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
}

// Figure 10: perturbation magnitude per input dimension over communication
// rounds under Adaptive Perturbation Adjustment (balanced setting). The
// dashed stage boundaries of the paper correspond to the module transitions
// printed below.
//
// Expected shape (paper): within each module's stage the magnitude starts
// small (alpha_init = 0.3) and ratchets upward as APA trades clean accuracy
// for robustness.
void fig10() {
  std::printf("=== Figure 10: eps per dimension across rounds (APA) ===\n\n");
  for (const char* workload : kWorkloads) {
    exp::ExperimentSpec spec = cell_spec(workload);
    spec.fp_rounds_per_module = fast_mode() ? 4 : 8;
    spec.fp_eval_every = 3;
    FedProphetCell cell(std::move(spec));
    cell.run.train();

    std::printf("-- %s --\nround : eps/dim   (| marks module boundaries)\n",
                display_name(workload));
    const auto& trace = cell.algo.eps_trace();
    const auto& stages = cell.algo.stages();
    std::size_t stage_idx = 0;
    std::int64_t next_boundary = stages.empty()
                                     ? static_cast<std::int64_t>(trace.size())
                                     : stages[0].rounds;
    for (std::size_t t = 0; t < trace.size(); ++t) {
      if (static_cast<std::int64_t>(t) == next_boundary &&
          stage_idx + 1 < stages.size()) {
        std::printf("----- module %zu -> %zu -----\n", stage_idx + 1,
                    stage_idx + 2);
        ++stage_idx;
        next_boundary += stages[stage_idx].rounds;
      }
      std::printf("%5zu : %.5f\n", t, trace[t]);
    }
    std::printf("\n");
  }
}

// ---- systems plane ----------------------------------------------------------

enum class TimingMethod {
  kJfat,
  kKnowledgeDistill,
  kPartialTraining,
  kFedRbn,
  kFedProphet,
  kFedProphetNoDma,
};

struct TimingScenario {
  const char* workload;
  Heterogeneity het;
  std::uint64_t seed;  ///< device-sampler seed
};

// The paper's round protocol (§7.1): C = 10 clients per round, E = 30 local
// iterations, PGD-10.
constexpr std::size_t kClientsPerRound = 10;
constexpr std::int64_t kLocalIters = 30;
constexpr int kPgdSteps = 10;

/// The KD baselines' architecture family on a workload's paper shapes,
/// smallest first; the last member is the full model.
std::vector<sys::ModelSpec> paper_kd_family(const std::string& workload) {
  if (workload == "cifar")
    return {models::cnn3_spec(32, 10), models::vgg11_spec(32, 10),
            models::vgg13_spec(32, 10), models::vgg16_spec(32, 10)};
  return {models::cnn4_spec(224, 256), models::resnet10_spec(224, 256),
          models::resnet18_spec(224, 256), models::resnet34_spec(224, 256)};
}

/// Total simulated training time of a method under the paper's protocol
/// (rounds: 500 jFAT, 1000 memory-efficient baselines, ~350/module
/// FedProphet). Pure cost-model computation on the paper-shape specs.
fed::TimeBreakdown simulate_training_time(TimingMethod method,
                                          const TimingScenario& sc) {
  const exp::WorkloadInfo& wl = exp::workload_registry().resolve(sc.workload);
  const sys::ModelSpec full = wl.paper_spec();
  const std::int64_t batch = wl.paper_batch;
  const auto& pool =
      wl.cifar_pool ? sys::cifar_device_pool() : sys::caltech_device_pool();
  sys::DeviceSampler sampler(pool, sc.het, sc.seed);

  const std::int64_t full_mem = full_train_mem(full, batch);
  std::vector<std::int64_t> family_mem;
  for (const auto& m : paper_kd_family(sc.workload))
    family_mem.push_back(full_train_mem(m, batch));
  const auto partition = cascade::partition_model(full, full_mem / 5, batch);
  const std::size_t num_modules = partition.num_modules();

  // Paper protocol: jFAT 500 rounds; memory-efficient baselines 1000;
  // FedProphet up to 500/module with early stop (~350 effective; Fig. 10
  // shows ~2500 rounds over 7 modules on CIFAR).
  std::int64_t rounds = 1000;
  if (method == TimingMethod::kJfat) rounds = 500;
  if (method == TimingMethod::kFedProphet ||
      method == TimingMethod::kFedProphetNoDma)
    rounds = static_cast<std::int64_t>(num_modules) * 350;

  sys::TrainCostConfig cost_cfg;
  cost_cfg.batch_size = batch;
  cost_cfg.pgd_steps = kPgdSteps;

  fed::TimeBreakdown total;
  for (std::int64_t t = 0; t < rounds; ++t) {
    auto devices = sampler.sample_n(kClientsPerRound);
    // Paper §6.1: every client reserves at least Rmin (= 20% of full-model
    // memory) for training; degradation cannot take availability below it.
    for (auto& d : devices)
      d.avail_mem_bytes = std::max(d.avail_mem_bytes, full_mem / 5);
    double perf_min = devices[0].avail_flops;
    for (const auto& d : devices) perf_min = std::min(perf_min, d.avail_flops);

    std::vector<fed::ClientWork> work;
    work.reserve(devices.size());
    for (const auto& d : devices) {
      fed::ClientWork w;
      w.pgd_steps = kPgdSteps;
      w.atom_begin = 0;
      w.atom_end = full.atoms.size();
      switch (method) {
        case TimingMethod::kJfat:
          break;
        case TimingMethod::kKnowledgeDistill: {
          // Largest family member that fits the available memory.
          std::size_t arch = 0;
          for (std::size_t a = 0; a < family_mem.size(); ++a)
            if (family_mem[a] <= d.avail_mem_bytes) arch = a;
          const double scale = static_cast<double>(family_mem[arch]) /
                               static_cast<double>(full_mem);
          w.mem_scale = scale;
          w.flops_scale = scale;
          break;
        }
        case TimingMethod::kPartialTraining: {
          const double ratio = std::clamp(
              static_cast<double>(d.avail_mem_bytes) /
                  static_cast<double>(full_mem),
              0.25, 1.0);
          w.mem_scale = ratio;
          w.flops_scale = ratio * ratio;
          break;
        }
        case TimingMethod::kFedRbn:
          // Memory-poor clients do standard training (1 fwd + 1 bwd).
          w.pgd_steps = d.avail_mem_bytes >= full_mem ? kPgdSteps : 0;
          break;
        case TimingMethod::kFedProphet:
        case TimingMethod::kFedProphetNoDma: {
          const auto stage = static_cast<std::size_t>(
              std::min<std::int64_t>(t / 350,
                                     static_cast<std::int64_t>(num_modules) - 1));
          const std::size_t end = fedprophet::assign_modules(
              full, partition, stage, batch, d.avail_mem_bytes, d.avail_flops,
              perf_min, method == TimingMethod::kFedProphet);
          w.atom_begin = partition.modules[stage].begin;
          w.atom_end = partition.modules[end - 1].end;
          w.with_aux = !partition.modules[end - 1].is_last;
          break;
        }
      }
      work.push_back(w);
    }
    total +=
        fed::simulate_round_time(full, devices, work, cost_cfg, kLocalIters);
  }
  return total;
}

// Table 4: FedProphet training time with and without Differentiated Module
// Assignment. The FLOPs constraint (Eq. 15) caps every prophet client's
// extra work at the slowest client's single-module time, so DMA's accuracy
// gains come at (approximately) no latency cost.
void table4() {
  std::printf("=== Table 4: FedProphet training time, with vs without DMA ===\n\n");
  std::printf("%-28s %-11s %14s %14s %10s\n", "setting", "DMA", "compute (s)",
              "access (s)", "total");
  for (const char* workload : kWorkloads) {
    for (const auto het : kFleets) {
      const TimingScenario sc{workload, het,
                              17u + (het == Heterogeneity::kUnbalanced)};
      char setting[64];
      std::snprintf(setting, sizeof(setting), "%s %s",
                    std::strcmp(workload, "cifar") == 0 ? "CIFAR-10"
                                                        : "Caltech-256",
                    fleet_name(het));
      const auto with_dma =
          simulate_training_time(TimingMethod::kFedProphet, sc);
      const auto without_dma =
          simulate_training_time(TimingMethod::kFedProphetNoDma, sc);
      std::printf("%-28s %-11s %14.3g %14.3g %10.3g\n", setting, "w/ DMA",
                  with_dma.compute_s, with_dma.access_s, with_dma.total());
      std::printf("%-28s %-11s %14.3g %14.3g %10.3g   (%+.1f%%)\n", setting,
                  "w/o DMA", without_dma.compute_s, without_dma.access_s,
                  without_dma.total(),
                  100.0 * (with_dma.total() / without_dma.total() - 1.0));
    }
  }
  std::printf(
      "\nShape check: the w/ DMA and w/o DMA columns should be within a few\n"
      "percent of each other (paper Table 4), because Eq. 15 bounds prophet\n"
      "work by the slowest client's single-module round time.\n");
}

// Tables 7 and 8: the memory-constrained model partitions of VGG16
// (Rmin = 60 MB, B = 64) and ResNet34 (Rmin = 224 MB, B = 32), printed next
// to the paper's reference values for comparison.
void table7_8() {
  std::printf("=== Table 7: VGG16 partition (Rmin = 60 MB, B = 64) ===\n");
  const auto vgg = models::vgg16_spec(32, 10);
  const auto pv = cascade::partition_model(vgg, 60ll << 20, 64);
  std::printf("%s\n", cascade::format_partition(vgg, pv).c_str());
  std::printf(
      "Paper reference: 7 modules; Mem 55.8/46.1/50.4/34.7/33.1/59.3/36.1 MB;\n"
      "MACs 2.6/4.9/6.0/2.4/2.4/1.2/0.6 G. Differences come from the\n"
      "activation-accounting convention (DESIGN.md S5); every module stays\n"
      "under Rmin and the module count is comparable.\n\n");

  std::printf("=== Table 8: ResNet34 partition (Rmin = 224 MB, B = 32) ===\n");
  const auto res = models::resnet34_spec(224, 256);
  const auto pr = cascade::partition_model(res, 224ll << 20, 32);
  std::printf("%s\n", cascade::format_partition(res, pr).c_str());
  std::printf(
      "Paper reference: 7 modules; Mem 148.6/130.2/130.2/197.9/221.6/206.5/\n"
      "204.0 MB; MACs 3.9/7.5/7.5/13.3/28.1/37.1/20.6 G.\n");

  // Summary row used by Figure 6's lower panel and the 80% headline.
  struct Row {
    const char* entry;
    const sys::ModelSpec& spec;
    const cascade::Partition& part;
    std::int64_t batch;
  };
  for (const Row& row :
       {Row{"VGG16", vgg, pv, 64}, Row{"ResNet34", res, pr, 32}}) {
    const auto full = full_train_mem(row.spec, row.batch);
    const auto peak = largest_module_mem(row.spec, row.part);
    std::printf("%s: full %.0f MB -> largest module %.0f MB (%.0f%% reduction; "
                "paper: 80%%)\n",
                row.entry, static_cast<double>(full) / (1 << 20),
                static_cast<double>(peak) / (1 << 20),
                100.0 * (1.0 - static_cast<double>(peak) /
                                   static_cast<double>(full)));
  }
}

// Figure 2: local-training overhead breakdown and normalized latency for
// one adversarial-training iteration under three memory regimes:
//   Suff. Mem     — enough memory to train the whole model (no swapping),
//   Lim. w/ Swap  — 20% of the requirement, training via memory swapping,
//   Lim. w/o Swap — 20% via a width-sliced sub-model (FedRolex-style).
// Workloads: VGG16 on CIFAR-10 (B=64) and ResNet34 on Caltech-256 (B=32).
void fig2_workload(const char* title, const sys::ModelSpec& spec,
                   std::int64_t batch, const sys::Device& device) {
  sys::TrainCostConfig cfg;
  cfg.batch_size = batch;
  cfg.pgd_steps = 10;
  const std::int64_t full = full_train_mem(spec, batch);
  const std::int64_t limited = full / 5;

  // Limited without swapping: a 20%-width sub-model (FedRolex).
  sys::TrainCostConfig sub = cfg;
  sub.mem_scale = 0.2;
  sub.flops_scale = 0.2 * 0.2;
  struct Regime {
    const char* name;
    const sys::TrainCostConfig& cfg;
    std::int64_t mem_limit;
  };
  const Regime regimes[] = {{"Suff. Mem", cfg, 1ll << 60},
                            {"Lim. w/ Swap", cfg, limited},
                            {"Lim. w/o Swap", sub, limited}};

  double base = 0.0;  // Suff. Mem latency, the normalization
  std::printf("-- %s (device: %s, full model %.0f MB, limit %.0f MB) --\n",
              title, device.name.c_str(), static_cast<double>(full) / (1 << 20),
              static_cast<double>(limited) / (1 << 20));
  std::printf("%-14s %14s %14s %12s %10s\n", "regime", "computation %",
              "data access %", "latency (s)", "norm.");
  for (const auto& r : regimes) {
    const auto cost = sys::train_step_cost(spec, 0, spec.atoms.size(), false,
                                           r.cfg, r.mem_limit);
    const auto time = sys::step_time(cost, device.peak_flops(),
                                     device.io_bytes_per_s(), r.cfg);
    const double total = time.total();
    if (base == 0.0) base = total;
    std::printf("%-14s %13.1f%% %13.1f%% %12.3f %9.2fx\n", r.name,
                100.0 * time.compute_s / total, 100.0 * time.access_s / total,
                total, total / base);
  }
  std::printf("\n");
}

void fig2() {
  std::printf(
      "=== Figure 2: overhead breakdown of one PGD-10 training iteration ===\n"
      "Paper shape: swapping makes data access dominate and inflates latency\n"
      "by an order of magnitude; sub-model training avoids it.\n\n");
  // TX2-class device: modest compute, slow storage — a representative
  // memory-constrained edge client.
  fig2_workload("VGG16 on CIFAR-10", models::vgg16_spec(32, 10), 64,
                sys::cifar_device_pool()[1]);
  fig2_workload("ResNet34 on Caltech-256", models::resnet34_spec(224, 256), 32,
                sys::caltech_device_pool()[8]);
}

// Figure 6 (and Tables 5/6): the edge-device fleet.
//  * Upper: balanced vs unbalanced real-time availability samplings
//    (memory x performance scatter, summarized here as per-device stats).
//  * Lower: peak training-memory consumption of jFAT (whole model) vs
//    FedProphet (largest module) on both workloads.
void fig6_pool(const char* title, const std::vector<sys::Device>& pool) {
  std::printf("-- %s --\n%-18s %10s %8s %12s\n", title, "device", "TFLOPS",
              "mem GB", "I/O GB/s");
  for (const auto& d : pool)
    std::printf("%-18s %10.1f %8.0f %12.1f\n", d.name.c_str(), d.peak_tflops,
                d.mem_gb, d.io_gbps);
  std::printf("\n");
}

void fig6_sampling(const char* title, const std::vector<sys::Device>& pool,
                   Heterogeneity het) {
  sys::DeviceSampler sampler(pool, het, 33);
  const int n = 5000;
  std::vector<int> count(pool.size(), 0);
  double mem = 0, perf = 0;
  for (int i = 0; i < n; ++i) {
    const auto inst = sampler.sample();
    ++count[inst.pool_index];
    mem += static_cast<double>(inst.avail_mem_bytes) / (1 << 30);
    perf += inst.avail_flops / 1e12;
  }
  std::printf("%s: mean avail mem %.2f GB, mean avail perf %.2f TFLOPS\n", title,
              mem / n, perf / n);
  std::printf("  selection frequency:");
  for (std::size_t i = 0; i < pool.size(); ++i)
    std::printf(" %s %.0f%%", pool[i].name.c_str(), 100.0 * count[i] / n);
  std::printf("\n");
}

void fig6_memory(const char* title, const sys::ModelSpec& spec,
                 std::int64_t batch) {
  const auto full = full_train_mem(spec, batch);
  const auto p = cascade::partition_model(spec, full / 5, batch);
  const auto peak = largest_module_mem(spec, p);
  std::printf("%-28s jFAT %7.0f MB | FedProphet %6.0f MB (%zu modules, -%.0f%%)\n",
              title, static_cast<double>(full) / (1 << 20),
              static_cast<double>(peak) / (1 << 20), p.num_modules(),
              100.0 * (1.0 - static_cast<double>(peak) / static_cast<double>(full)));
}

void fig6() {
  std::printf("=== Tables 5/6: device pools ===\n");
  fig6_pool("CIFAR-10 workload (Table 5)", sys::cifar_device_pool());
  fig6_pool("Caltech-256 workload (Table 6)", sys::caltech_device_pool());

  std::printf("=== Figure 6 (upper): real-time availability samplings ===\n");
  for (const bool cifar : {true, false}) {
    const auto& pool =
        cifar ? sys::cifar_device_pool() : sys::caltech_device_pool();
    std::printf("[%s]\n", cifar ? "CIFAR pool" : "Caltech pool");
    fig6_sampling("  balanced  ", pool, Heterogeneity::kBalanced);
    fig6_sampling("  unbalanced", pool, Heterogeneity::kUnbalanced);
  }

  std::printf("\n=== Figure 6 (lower): training memory consumption ===\n");
  fig6_memory("VGG16 on CIFAR-10 (B=64)", models::vgg16_spec(32, 10), 64);
  fig6_memory("ResNet34 on Caltech-256 (B=32)",
              models::resnet34_spec(224, 256), 32);
}

// Figure 7: total training time (computation + data access) of every method
// under the paper's round protocol, on the paper-shape workloads, for
// balanced and unbalanced device fleets. Also reports FedProphet's speedup
// over jFAT (paper: 2.4x / 1.9x / 10.8x / 7.7x).
void fig7() {
  struct MethodRow {
    const char* name;
    TimingMethod method;
  };
  const MethodRow methods[] = {
      {"jFAT", TimingMethod::kJfat},
      {"FedDF-AT", TimingMethod::kKnowledgeDistill},
      {"FedET-AT", TimingMethod::kKnowledgeDistill},
      {"HeteroFL-AT", TimingMethod::kPartialTraining},
      {"FedDrop-AT", TimingMethod::kPartialTraining},
      {"FedRolex-AT", TimingMethod::kPartialTraining},
      {"FedRBN", TimingMethod::kFedRbn},
      {"FedProphet", TimingMethod::kFedProphet},
  };

  std::printf(
      "=== Figure 7: simulated total training time (paper protocol: 500\n"
      "rounds jFAT / 1000 rounds baselines / ~350 per module FedProphet,\n"
      "C=10 clients, E=30 local iterations, PGD-10) ===\n\n");
  for (const char* workload : kWorkloads) {
    for (const auto het : kFleets) {
      const TimingScenario sc{workload, het,
                              11u + (het == Heterogeneity::kUnbalanced)};
      std::printf("-- %s, %s --\n", display_name(workload), fleet_name(het));
      std::printf("%-14s %14s %14s %14s\n", "method", "compute (s)",
                  "access (s)", "total (s)");
      double jfat_total = 0;
      for (const auto& m : methods) {
        const auto t = simulate_training_time(m.method, sc);
        if (m.method == TimingMethod::kJfat) jfat_total = t.total();
        std::printf("%-14s %14.3g %14.3g %14.3g", m.name, t.compute_s,
                    t.access_s, t.total());
        if (m.method == TimingMethod::kFedProphet && jfat_total > 0)
          std::printf("   (%.1fx speedup vs jFAT)", jfat_total / t.total());
        std::printf("\n");
      }
      std::printf("\n");
    }
  }
}

// Extension ablation (paper §8, "future work"): how the two memory
// reductions the paper names as complementary — low-bit training and
// LoRA-style low-rank adaptation — compose with FedProphet's module
// partitioning. For each combination we report the largest-module training
// memory of VGG16/ResNet34 and the module count at the paper's Rmin.
//
// Each row is a workload's paper shape and batch from the workload registry
// (WorkloadInfo::paper_spec / paper_batch) at the paper's Rmin.
struct AblationRow {
  const char* title;
  const char* workload;  ///< exp workload registry key
  std::int64_t rmin;
};

void extensions_report(const AblationRow& row) {
  const exp::WorkloadInfo& wl = exp::workload_registry().resolve(row.workload);
  const auto spec = wl.paper_spec();
  const std::int64_t batch = wl.paper_batch;
  std::printf("-- %s (Rmin = %.0f MB, B = %lld) --\n", row.title,
              static_cast<double>(row.rmin) / (1 << 20),
              static_cast<long long>(batch));
  std::printf("%-26s %10s %12s %9s\n", "configuration", "full mem",
              "largest mod", "modules");
  const auto partition = cascade::partition_model(spec, row.rmin, batch);
  const auto baseline = full_train_mem(spec, batch);
  for (const int bits : {32, 16, 8}) {
    const auto full =
        nn::low_bit_mem_bytes(spec, 0, spec.atoms.size(), batch, false, bits);
    std::int64_t peak = 0;
    for (const auto& mod : partition.modules)
      peak = std::max(peak, nn::low_bit_mem_bytes(spec, mod.begin, mod.end,
                                                  batch, !mod.is_last, bits));
    // Low-bit also lets the partitioner pack more atoms per module: repartition
    // under the scaled budget for the module count column.
    // (Approximate: scale Rmin by the inverse memory ratio.)
    const double ratio = static_cast<double>(full) / static_cast<double>(baseline);
    const auto repart = cascade::partition_model(
        spec,
        static_cast<std::int64_t>(static_cast<double>(row.rmin) / ratio), batch);
    char label[64];
    std::snprintf(label, sizeof(label), "FedProphet + int%d", bits);
    std::printf("%-26s %7.0f MB %9.0f MB %9zu\n",
                bits == 32 ? "FedProphet (fp32)" : label,
                static_cast<double>(full) / (1 << 20),
                static_cast<double>(peak) / (1 << 20), repart.num_modules());
  }
  std::printf(
      "(LoRA applies at parameter granularity: with rank-r adapters on the\n"
      " classifier linears, trainable state shrinks by r(in+out)/(in*out);\n"
      " see nn::LoRaLinear::trainable_params. Composition is multiplicative\n"
      " with both the per-bit reduction above and the per-module partition.)\n\n");
}

void extensions() {
  std::printf("=== Extension ablation: low-bit x cascade partitioning ===\n\n");
  const AblationRow rows[] = {
      {"VGG16 on CIFAR-10", "cifar", 60ll << 20},
      {"ResNet34 on Caltech-256", "caltech", 224ll << 20},
  };
  for (const auto& row : rows) extensions_report(row);
}

struct PaperBench {
  const char* name;
  const char* description;
  void (*run)();
};

const PaperBench kBenches[] = {
    {"table1", "FAT accuracy vs model size", table1},
    {"table2", "Clean/PGD/AA accuracy of all methods", table2},
    {"table3", "FedProphet APA/DMA ablation", table3},
    {"table4", "FedProphet training time with vs without DMA", table4},
    {"table7_8", "memory-constrained model partitions", table7_8},
    {"fig2", "overhead breakdown of one PGD training iteration", fig2},
    {"fig6", "device pools and availability samplings", fig6},
    {"fig7", "total training time of every method (systems plane)", fig7},
    {"fig8", "strong-convexity (mu) sweep", fig8},
    {"fig9", "Rmin sweep: module count vs accuracy", fig9},
    {"fig10", "eps-per-dimension trace under APA", fig10},
    {"extensions", "low-bit x cascade partitioning extension ablation",
     extensions},
};

}  // namespace
}  // namespace fp::bench

int main(int argc, char** argv) {
  using namespace fp::bench;
  if (argc == 2)
    for (const auto& bench : kBenches)
      if (std::strcmp(argv[1], bench.name) == 0) {
        bench.run();
        return 0;
      }
  std::string description =
      "the paper's tables and figures\n\nrun one with: bench_paper <name>";
  for (const auto& bench : kBenches) {
    char line[96];
    std::snprintf(line, sizeof(line), "\n  %-11s %s", bench.name,
                  bench.description);
    description += line;
  }
  if (const int rc = parse_bench_args(argc, argv, "bench_paper",
                                      description.c_str());
      rc >= 0)
    return rc;
  std::fprintf(stderr, "bench_paper: missing <name>; see bench_paper --help\n");
  return 2;
}
