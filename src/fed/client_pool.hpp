// Per-client runtime state shared by every federated algorithm.
//
// Two modes (DESIGN.md §9):
//
//  * Eager (legacy): one persistent State (RNG stream + shuffling
//    BatchIterator) per pool client, seeded Rng(seed + stream_base + k).
//    Bit-identical to the historical per-method client vectors. Optionally
//    bounded: env.iter_cache > 0 evicts the least-recently-dispatched
//    iterators at end_round so long runs with large pools stop accumulating
//    per-client iterator state (opt-in — an evicted client reshuffles from
//    its stream on re-dispatch, which perturbs that client's draws).
//
//  * Session (plan-backed pools, env.session_mode()): nothing is resident
//    per pool client. A dispatch opens a session whose RNG stream is derived
//    statelessly from (seed + stream_base, client, dispatch_count) and whose
//    shard is synthesized on demand (or borrowed from materialized shards),
//    held in a small LRU keyed by client id, and discarded at end_round.
//    Round cost is O(sampled) in memory and time regardless of pool size,
//    and results are independent of thread count and LRU capacity.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "fed/env.hpp"

namespace fp::fed {

class ClientPool {
 public:
  explicit ClientPool(const FedEnv& env, std::uint64_t seed,
                      std::uint64_t stream_base = 5000);

  Rng& rng(std::size_t k);
  data::BatchIterator& batches(std::size_t k, std::int64_t batch_size);

  /// Dispatch lifecycle: methods call begin_round from begin_dispatch and
  /// end_round from finalize_round. Sessions/iterator eviction are handled
  /// here; calls are cheap no-ops when neither applies.
  template <typename TaskLike>
  void begin_round(const std::vector<TaskLike>& tasks) {
    ++round_;
    for (const auto& t : tasks) note_dispatch(static_cast<std::size_t>(t.client));
  }
  void end_round();

  bool session_mode() const { return session_; }
  /// Currently engaged batch iterators (eager states or open sessions).
  std::size_t resident_iterators() const;

 private:
  struct State {
    Rng rng;
    std::optional<data::BatchIterator> batches;
    std::int64_t last_used = -1;
  };
  struct Session {
    Rng rng;
    std::shared_ptr<const data::Dataset> shard;
    std::optional<data::BatchIterator> iter;
  };
  struct CacheEntry {
    std::shared_ptr<const data::Dataset> ds;
    std::uint64_t tick = 0;
  };

  void note_dispatch(std::size_t k);
  Session& acquire(std::size_t k);
  std::shared_ptr<const data::Dataset> shard_of(std::size_t k);

  const FedEnv* env_;
  std::uint64_t seed_ = 0;
  std::uint64_t stream_base_ = 5000;
  bool session_ = false;
  std::int64_t round_ = 0;

  // Eager mode: O(pool) persistent states (legacy layout).
  std::vector<State> state_;

  // Session mode: O(sampled) open sessions + an LRU of synthesized shards.
  mutable std::mutex mu_;
  std::unordered_map<std::size_t, Session> sessions_;
  std::unordered_map<std::size_t, std::uint64_t> dispatch_count_;
  std::unordered_map<std::size_t, CacheEntry> cache_;
  std::int64_t cache_cap_ = 256;
  std::uint64_t tick_ = 0;
};

}  // namespace fp::fed
