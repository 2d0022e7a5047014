// Sample-sharded eval-mode networks for robust evaluation (DESIGN.md §2.5).
//
// In eval mode every sample's logits, and every sample's input gradient for
// a given d loss / d logits, depend on that sample alone: the blocked GEMM,
// eval-mode BatchNorm and pooling accumulate each output element in an order
// that does not depend on the batch size (DESIGN.md §3). So a batch can be
// split into contiguous row shards, each run on its own replica of the
// network on its own pool thread, and reassembled bit-identically.
//
// A ShardedNet does exactly that for the two things evaluation needs: the
// classification forward (predict) and an attack's LossGradFn (lossgrad).
// Everything that reduces over the batch stays on the calling thread on the
// full tensor: the loss, d loss / d logits, and everything the attacks do
// with the Rng (random starts, APGD's step halving, AA's survival mask).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "attack/attacks.hpp"
#include "models/built_model.hpp"
#include "tensor/compute_mode.hpp"

namespace fp::attack {

/// One shard's network.
struct ShardNet {
  /// Eval-mode logits of the shard's rows; caches what backward needs.
  std::function<Tensor(const Tensor& x)> forward;
  /// d loss / d input of the rows of the last forward, given their
  /// d loss / d logits.
  std::function<Tensor(const Tensor& grad_logits)> backward;
};

/// Loss over a batch of logits, and its gradient with respect to them.
using LogitLoss = float (*)(const Tensor& logits,
                            const std::vector<std::int64_t>& y);
using LogitLossGrad = Tensor (*)(const Tensor& logits,
                                 const std::vector<std::int64_t>& y);

/// Networks that split every batch into min(shards(), rows) contiguous row
/// shards and run shard s on nets[s] through core::parallel_tasks. Each
/// task re-opens the caller's thread-local compute scopes (InferenceScope,
/// InputGradScope) before it touches its network. Copies share the nets,
/// and a LossGradFn keeps them alive.
class ShardedNet {
 public:
  explicit ShardedNet(std::vector<ShardNet> nets);

  std::size_t shards() const { return nets_->size(); }

  /// Row-wise argmax of the logits, each shard's forward under
  /// InferenceScope(cc) (pure inference: int8 / Winograd when configured).
  std::vector<std::int64_t> predict(const Tensor& x,
                                    const compute::ComputeConfig& cc) const;

  /// loss(logits, y) and d loss / d x. The forwards and backwards run on
  /// the shards; loss and d loss / d logits once, on the full batch.
  LossGradFn lossgrad(LogitLoss loss, LogitLossGrad loss_grad) const;

 private:
  std::shared_ptr<const std::vector<ShardNet>> nets_;
};

/// Shard count for batches of up to `rows` rows: min(core::num_threads(),
/// rows), or 1 inside a pool task, where the shards would run inline.
std::size_t eval_shards(std::int64_t rows);

/// `count` independent eval-mode copies of `model`: its parameters, both
/// BatchNorm banks' running statistics and its active bank. Built in
/// parallel.
std::vector<std::unique_ptr<models::BuiltModel>> eval_replicas(
    models::BuiltModel& model, std::size_t count);

/// `model` itself as shard 0 and shards - 1 eval_replicas of it. The
/// replicas live as long as the returned net (and its LossGradFns).
ShardedNet shard_model(models::BuiltModel& model, std::size_t shards);

}  // namespace fp::attack
