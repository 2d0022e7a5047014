#include "fed/client_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace fp::fed {

ClientPool::ClientPool(const FedEnv& env, std::uint64_t seed,
                       std::uint64_t stream_base)
    : env_(&env),
      seed_(seed),
      stream_base_(stream_base),
      session_(env.session_mode()) {
  if (session_) {
    if (env.client_cache > 0) cache_cap_ = env.client_cache;
    return;  // nothing resident per pool client
  }
  state_.resize(static_cast<std::size_t>(env.num_clients()));
  for (std::size_t k = 0; k < state_.size(); ++k)
    state_[k].rng = Rng(seed + stream_base + k);
}

Rng& ClientPool::rng(std::size_t k) {
  if (!session_) return state_[k].rng;
  return acquire(k).rng;
}

data::BatchIterator& ClientPool::batches(std::size_t k,
                                         std::int64_t batch_size) {
  if (!session_) {
    auto& s = state_[k];
    s.last_used = round_;
    if (!s.batches) s.batches.emplace(env_->shards[k], batch_size, s.rng);
    return *s.batches;
  }
  Session& s = acquire(k);
  if (!s.iter) s.iter.emplace(*s.shard, batch_size, s.rng);
  return *s.iter;
}

void ClientPool::note_dispatch(std::size_t k) {
  if (!session_) {
    state_[k].last_used = round_;
    return;
  }
  // Sessions are opened on first touch (acquire), off the engine thread, so
  // shard synthesis parallelizes with training; nothing to pre-build here.
  (void)k;
}

ClientPool::Session& ClientPool::acquire(std::size_t k) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(k);
    if (it != sessions_.end()) return it->second;
  }
  // Synthesize outside the lock: a client is trained by exactly one worker
  // per round, so no other thread builds this key concurrently; the
  // try_emplace below handles the benign probe/dispatch overlap anyway.
  std::shared_ptr<const data::Dataset> shard = shard_of(k);
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = sessions_.try_emplace(k);
  if (inserted) {
    // Stream = f(seed, client, #prior sessions of this client): independent
    // of slot order, thread count, and LRU capacity, so a re-sampled client
    // gets the same derived stream no matter how the round was scheduled.
    const std::uint64_t count = dispatch_count_[k]++;
    it->second.rng = Rng(Rng::mix_seed(
        Rng::mix_seed(seed_ + stream_base_, static_cast<std::uint64_t>(k)),
        count));
    it->second.shard = std::move(shard);
  }
  return it->second;
}

std::shared_ptr<const data::Dataset> ClientPool::shard_of(std::size_t k) {
  if (!env_->shards.empty()) {
    // Materialized plan: borrow the resident shard (non-owning alias).
    return {std::shared_ptr<const void>(), &env_->shards[k]};
  }
  static obs::Counter& hits = obs::counter("scale.shard_cache_hits");
  static obs::Counter& misses = obs::counter("scale.shard_cache_misses");
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = cache_.find(k);
    if (it != cache_.end()) {
      it->second.tick = ++tick_;
      hits.add();
      return it->second.ds;
    }
  }
  misses.add();
  auto ds = std::make_shared<const data::Dataset>(
      env_->lazy->make_shard(static_cast<std::int64_t>(k)));
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = cache_.try_emplace(k, CacheEntry{ds, ++tick_});
  if (!inserted) {
    it->second.tick = ++tick_;
    return it->second.ds;
  }
  if (static_cast<std::int64_t>(cache_.size()) > cache_cap_) {
    // Evict the least-recently-used entry. Open sessions keep their shard
    // alive through the shared_ptr, so eviction never invalidates a running
    // client — and since shards are pure functions of (seed, client), the
    // cache capacity can never change results, only synthesis count.
    auto victim = cache_.begin();
    for (auto jt = cache_.begin(); jt != cache_.end(); ++jt)
      if (jt->second.tick < victim->second.tick) victim = jt;
    cache_.erase(victim);
  }
  return ds;
}

void ClientPool::end_round() {
  if (session_) {
    std::lock_guard<std::mutex> lk(mu_);
    sessions_.clear();
    return;
  }
  // Eager-mode iterator eviction (opt-in, env.iter_cache > 0): keep only the
  // most recently dispatched iterators so long runs with large pools stop
  // accumulating per-client iterator state.
  if (env_->iter_cache <= 0) return;
  std::vector<std::pair<std::int64_t, std::size_t>> engaged;
  for (std::size_t k = 0; k < state_.size(); ++k)
    if (state_[k].batches) engaged.emplace_back(state_[k].last_used, k);
  if (static_cast<std::int64_t>(engaged.size()) <= env_->iter_cache) return;
  std::sort(engaged.begin(), engaged.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = static_cast<std::size_t>(env_->iter_cache);
       i < engaged.size(); ++i)
    state_[engaged[i].second].batches.reset();
}

std::size_t ClientPool::resident_iterators() const {
  if (session_) {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto& [k, s] : sessions_)
      if (s.iter) ++n;
    return n;
  }
  std::size_t n = 0;
  for (const auto& s : state_)
    if (s.batches) ++n;
  return n;
}

}  // namespace fp::fed
