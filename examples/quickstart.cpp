// Quickstart: memory-efficient federated adversarial training with
// FedProphet on a synthetic CIFAR-like dataset, driven through the
// declarative experiment API (src/exp/, DESIGN.md §7).
//
// Walks the public API surface end to end:
//   1. describe the whole experiment as an ExperimentSpec — every knob is a
//      dotted key, the same keys `fp_run` accepts on its command line,
//   2. build the setup (synthetic data, non-IID shards, device fleet, model
//      family) and inspect the module partition (Algorithm 1),
//   3. construct FedProphet from the method registry and train it
//      (adversarial cascade learning + server coordinator, Algorithm 2),
//   4. evaluate clean / PGD-20 / AutoAttackLite accuracy.
//
// Runs in about a minute on one CPU core.
#include <cstdio>

#include "cascade/partitioner.hpp"
#include "exp/runner.hpp"
#include "fedprophet/fedprophet.hpp"

int main() {
  using namespace fp;

  // 1. The experiment, declaratively. Defaults reproduce the bench scenario;
  //    every override below is a plain key=value — paste them after `fp_run`
  //    to get the identical run from the CLI.
  exp::ExperimentSpec spec;
  for (const char* kv : {
           "method=FedProphet", "workload=cifar", "data.train_size=1500",
           "data.test_size=300", "fl.num_clients=10", "fl.clients_per_round=4",
           "fl.local_iters=5", "fl.batch_size=16", "fl.pgd_steps=3",
           "fl.lr0=0.05", "fl.sgd.lr=0.05", "fl.lr_decay=0.994", "fl.seed=123",
           "env.public_set=0",
           // Rmin = 1/3 of full-model memory; 10 rounds per module stage.
           "fp.rmin_frac=0.3333333333333333", "fp.rounds_per_module=10",
           "fp.eval_every=5", "fp.val_samples=256",
           // Final evaluation: PGD-10 / AA-lite-10 over 200 samples.
           "eval.pgd_steps=10", "eval.aa_steps=10", "eval.aa_restarts=2",
           "eval.max_samples=200",
       })
    exp::apply_override(spec, kv);

  // Map a 0.2 GB reference device onto the tiny trainable backbone.
  const auto backbone = exp::model_registry().resolve("tiny_vgg")(
      {spec.model_image, 10, spec.model_width});
  const auto full_mem = sys::module_train_mem_bytes(
      backbone, 0, backbone.atoms.size(), spec.fl.batch_size, false);
  spec.device_mem_scale =
      static_cast<double>(full_mem) / (0.2 * static_cast<double>(1ull << 30));

  // 2. Build the environment: shards, weights, the paper's CIFAR device pool.
  exp::Setup setup = exp::build_setup(spec);
  std::printf("environment: %lld clients, test set %lld, device pool '%s'...\n",
              static_cast<long long>(setup.env.num_clients()),
              static_cast<long long>(setup.env.test.size()),
              setup.env.devices->pool()[0].name.c_str());

  // 3. FedProphet from the method registry (the same factory fp_run uses).
  exp::MethodRun run = exp::method_registry().resolve("FedProphet")(setup);
  auto& algo = dynamic_cast<fedprophet::FedProphet&>(*run.algo);
  std::printf("partitioned %s into %zu modules (Rmin = %.1f KB):\n",
              setup.model.name.c_str(), algo.partition().num_modules(),
              static_cast<double>(setup.rmin) / 1024.0);
  std::printf("%s",
              cascade::format_partition(setup.model, algo.partition()).c_str());

  // 4. Train (Algorithm 2: module stages with APA + DMA).
  run.train();
  for (const auto& stage : algo.stages())
    std::printf(
        "module %zu: %lld rounds, prefix clean %.1f%% adv %.1f%%, "
        "eps %.4f, E[max||dz||] %.3f\n",
        stage.module + 1, static_cast<long long>(stage.rounds),
        100 * stage.final_clean, 100 * stage.final_adv, stage.eps_used,
        stage.mean_dz);

  // 5. Final three-metric evaluation (the eval.* keys above).
  const auto result = algo.evaluate(exp::eval_config(setup.spec));
  std::printf("\nfinal: clean %.1f%%  PGD %.1f%%  AA-lite %.1f%%\n",
              100 * result.clean_acc, 100 * result.pgd_acc, 100 * result.aa_acc);
  std::printf("simulated training time: %.3g s (compute %.3g s, access %.3g s)\n",
              algo.sim_time().total(), algo.sim_time().compute_s,
              algo.sim_time().access_s);
  return 0;
}
