#include "attack/evaluate.hpp"

#include <algorithm>

#include "attack/sharded.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace fp::attack {

namespace {
std::int64_t eval_count(const data::Dataset& test, std::int64_t max_samples) {
  return max_samples > 0 ? std::min(max_samples, test.size()) : test.size();
}

/// The replica set of one evaluation call over the first n samples.
ShardedNet shard_eval(models::BuiltModel& model, std::int64_t n,
                      std::int64_t batch_size) {
  return shard_model(model, eval_shards(std::min(batch_size, n)));
}

/// Marks correctly classified samples (eval mode). This forward is pure
/// inference, so it runs under the caller's compute mode (int8 / Winograd
/// when configured); attack-generation forwards do not.
std::vector<bool> correct_mask(const ShardedNet& net, const Tensor& x,
                               const std::vector<std::int64_t>& y,
                               const compute::ComputeConfig& cc) {
  const auto preds = net.predict(x, cc);
  std::vector<bool> ok(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) ok[i] = preds[i] == y[i];
  return ok;
}

double clean_accuracy(const ShardedNet& net, const data::Dataset& test,
                      std::int64_t n, std::int64_t batch_size,
                      const compute::ComputeConfig& compute) {
  FP_TRACE_SCOPE("evaluate_clean", "eval");
  std::int64_t correct = 0;
  for (std::int64_t start = 0; start < n; start += batch_size) {
    const auto b = data::take_batch(test, start, std::min(batch_size, n - start));
    const auto mask = correct_mask(net, b.x, b.y, compute);
    for (const bool ok : mask) correct += ok;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

double pgd_accuracy(const ShardedNet& net, const data::Dataset& test,
                    std::int64_t n, const RobustEvalConfig& cfg) {
  FP_TRACE_SCOPE("evaluate_pgd", "eval");
  Rng rng(cfg.seed);
  PgdConfig pgd_cfg;
  pgd_cfg.epsilon = cfg.epsilon;
  pgd_cfg.steps = cfg.pgd_steps;
  const auto fn = net.lossgrad(cross_entropy, cross_entropy_grad);
  std::int64_t correct = 0;
  for (std::int64_t start = 0; start < n; start += cfg.batch_size) {
    const auto b =
        data::take_batch(test, start, std::min(cfg.batch_size, n - start));
    const Tensor x_adv = pgd(fn, b.x, b.y, pgd_cfg, rng);
    const auto mask = correct_mask(net, x_adv, b.y, cfg.compute);
    for (const bool ok : mask) correct += ok;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}
}  // namespace

LossGradFn model_ce_lossgrad(models::BuiltModel& model) {
  return [&model](const Tensor& x, const std::vector<std::int64_t>& y,
                  Tensor* grad_x) {
    const Tensor logits = model.forward(x, /*train=*/false);
    const float loss = cross_entropy(logits, y);
    if (grad_x) {
      const Tensor glogits = cross_entropy_grad(logits, y);
      *grad_x = model.backward_range(0, model.num_atoms(), glogits);
    }
    return loss;
  };
}

LossGradFn model_dlr_lossgrad(models::BuiltModel& model) {
  return [&model](const Tensor& x, const std::vector<std::int64_t>& y,
                  Tensor* grad_x) {
    const Tensor logits = model.forward(x, /*train=*/false);
    const float loss = dlr_loss(logits, y);
    if (grad_x) {
      const Tensor glogits = dlr_loss_grad(logits, y);
      *grad_x = model.backward_range(0, model.num_atoms(), glogits);
    }
    return loss;
  };
}

double evaluate_clean(models::BuiltModel& model, const data::Dataset& test,
                      std::int64_t batch_size, std::int64_t max_samples,
                      const compute::ComputeConfig& compute) {
  obs::PhaseTimer eval_phase(obs::Phase::kEval);
  const std::int64_t n = eval_count(test, max_samples);
  return clean_accuracy(shard_eval(model, n, batch_size), test, n, batch_size,
                        compute);
}

double evaluate_pgd(models::BuiltModel& model, const data::Dataset& test,
                    const RobustEvalConfig& cfg) {
  obs::PhaseTimer eval_phase(obs::Phase::kEval);
  const std::int64_t n = eval_count(test, cfg.max_samples);
  return pgd_accuracy(shard_eval(model, n, cfg.batch_size), test, n, cfg);
}

RobustEvalResult evaluate_robustness(models::BuiltModel& model,
                                     const data::Dataset& test,
                                     const RobustEvalConfig& cfg) {
  obs::PhaseTimer eval_phase(obs::Phase::kEval);
  FP_TRACE_SCOPE("evaluate_robustness", "eval");
  const std::int64_t n = eval_count(test, cfg.max_samples);
  // One replica set serves all three metrics and is freed on return.
  const ShardedNet net = shard_eval(model, n, cfg.batch_size);
  RobustEvalResult result;
  result.clean_acc = clean_accuracy(net, test, n, cfg.batch_size, cfg.compute);
  result.pgd_acc = pgd_accuracy(net, test, n, cfg);

  // AutoAttackLite: a sample is robust only if it survives APGD-CE and
  // APGD-DLR under every restart.
  Rng rng(cfg.seed + 1);
  PgdConfig apgd_cfg;
  apgd_cfg.epsilon = cfg.epsilon;
  apgd_cfg.steps = cfg.aa_steps;
  const auto ce_fn = net.lossgrad(cross_entropy, cross_entropy_grad);
  const auto dlr_fn = net.lossgrad(dlr_loss, dlr_loss_grad);
  const bool use_dlr = test.num_classes >= 3;

  std::int64_t robust = 0;
  for (std::int64_t start = 0; start < n; start += cfg.batch_size) {
    const auto b =
        data::take_batch(test, start, std::min(cfg.batch_size, n - start));
    auto surviving = correct_mask(net, b.x, b.y, cfg.compute);
    for (int restart = 0; restart < cfg.aa_restarts; ++restart) {
      apgd_cfg.random_start = restart > 0;
      for (const auto* fn : {&ce_fn, use_dlr ? &dlr_fn : nullptr}) {
        if (!fn) continue;
        if (std::none_of(surviving.begin(), surviving.end(),
                         [](bool v) { return v; }))
          break;
        const Tensor x_adv = apgd(*fn, b.x, b.y, apgd_cfg, rng);
        const auto mask = correct_mask(net, x_adv, b.y, cfg.compute);
        for (std::size_t i = 0; i < surviving.size(); ++i)
          surviving[i] = surviving[i] && mask[i];
      }
    }
    for (const bool ok : surviving) robust += ok;
  }
  result.aa_acc = static_cast<double>(robust) / static_cast<double>(n);
  return result;
}

}  // namespace fp::attack
