#include "attack/sharded.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>

#include "core/parallel.hpp"

namespace fp::attack {

namespace {

/// First row of shard s when `rows` rows are cut into `shards` shards.
std::int64_t shard_begin(std::int64_t rows, std::size_t shards, std::size_t s) {
  return rows * static_cast<std::int64_t>(s) / static_cast<std::int64_t>(shards);
}

/// task(s) for every s in [0, n) on the pool. Pool threads do not inherit
/// thread-local scopes, so each task re-opens the caller's compute mode and
/// input-gradient-only flag; without that a worker's backward would compute
/// parameter gradients. The lowest shard's exception is rethrown here.
void run_shards(std::size_t n, const std::function<void(std::size_t)>& task) {
  const compute::ComputeConfig mode = compute::active();
  const bool input_grad_only = compute::input_grad_only();
  std::vector<std::exception_ptr> errors(n);
  core::parallel_tasks(static_cast<std::int64_t>(n), [&](std::int64_t i) {
    const auto s = static_cast<std::size_t>(i);
    try {
      const compute::InferenceScope inference(mode);
      std::optional<compute::InputGradScope> grad_only;
      if (input_grad_only) grad_only.emplace();
      task(s);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  });
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

/// f(nets[s], rows of shard s) for every shard, stacked by row.
template <typename F>
Tensor map_shards(const std::vector<ShardNet>& nets, std::size_t shards,
                  const Tensor& in, const F& f) {
  if (shards == 1) return f(nets[0], in);
  const std::int64_t rows = in.dim(0);
  std::vector<Tensor> parts(shards);
  run_shards(shards, [&](std::size_t s) {
    const std::int64_t begin = shard_begin(rows, shards, s);
    parts[s] = f(nets[s],
                 in.slice_rows(begin, shard_begin(rows, shards, s + 1) - begin));
  });
  std::vector<std::int64_t> shape = parts[0].shape();
  shape[0] = rows;
  Tensor out(std::move(shape));
  for (std::size_t s = 0; s < shards; ++s)
    out.set_rows(shard_begin(rows, shards, s), parts[s]);
  return out;
}

std::size_t shards_for(const std::vector<ShardNet>& nets, const Tensor& x) {
  const std::int64_t rows = std::max<std::int64_t>(1, x.dim(0));
  return std::min(nets.size(), static_cast<std::size_t>(rows));
}

/// `model` as a shard network; `keep` holds a replica alive.
ShardNet model_net(models::BuiltModel& model, std::shared_ptr<void> keep) {
  return {[&model, keep = std::move(keep)](const Tensor& x) {
            return model.forward(x, /*train=*/false);
          },
          [&model](const Tensor& grad_logits) {
            return model.backward_range(0, model.num_atoms(), grad_logits);
          }};
}

}  // namespace

ShardedNet::ShardedNet(std::vector<ShardNet> nets)
    : nets_(std::make_shared<const std::vector<ShardNet>>(std::move(nets))) {
  if (nets_->empty()) throw std::invalid_argument("ShardedNet: no shards");
}

std::vector<std::int64_t> ShardedNet::predict(
    const Tensor& x, const compute::ComputeConfig& cc) const {
  return map_shards(*nets_, shards_for(*nets_, x), x,
                    [&cc](const ShardNet& net, const Tensor& xs) {
                      const compute::InferenceScope scope(cc);
                      return net.forward(xs);
                    })
      .argmax_rows();
}

LossGradFn ShardedNet::lossgrad(LogitLoss loss, LogitLossGrad loss_grad) const {
  return [nets = nets_, loss, loss_grad](const Tensor& x,
                                         const std::vector<std::int64_t>& y,
                                         Tensor* grad_x) {
    const std::size_t shards = shards_for(*nets, x);
    const Tensor logits = map_shards(
        *nets, shards, x,
        [](const ShardNet& net, const Tensor& xs) { return net.forward(xs); });
    const float value = loss(logits, y);
    if (grad_x)
      *grad_x = map_shards(*nets, shards, loss_grad(logits, y),
                           [](const ShardNet& net, const Tensor& g) {
                             return net.backward(g);
                           });
    return value;
  };
}

std::size_t eval_shards(std::int64_t rows) {
  if (rows <= 1 || core::in_parallel_region()) return 1;
  return static_cast<std::size_t>(
      std::min<std::int64_t>(core::num_threads(), rows));
}

std::vector<std::unique_ptr<models::BuiltModel>> eval_replicas(
    models::BuiltModel& model, std::size_t count) {
  std::vector<std::unique_ptr<models::BuiltModel>> replicas(count);
  if (count == 0) return replicas;
  const nn::ParamBlob blob = model.save_all();
  const int bank = model.active_bn_bank();
  const sys::ModelSpec& spec = model.spec();
  run_shards(count, [&](std::size_t i) {
    auto replica = std::make_unique<models::BuiltModel>(spec, blob);
    replica->use_bn_bank(bank);
    replicas[i] = std::move(replica);
  });
  return replicas;
}

ShardedNet shard_model(models::BuiltModel& model, std::size_t shards) {
  std::vector<ShardNet> nets{model_net(model, nullptr)};
  for (auto& replica : eval_replicas(model, shards > 1 ? shards - 1 : 0)) {
    std::shared_ptr<models::BuiltModel> owned = std::move(replica);
    models::BuiltModel& ref = *owned;
    nets.push_back(model_net(ref, std::move(owned)));
  }
  return ShardedNet(std::move(nets));
}

}  // namespace fp::attack
