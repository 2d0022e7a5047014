// Pluggable round schedulers for the federated round engine.
//
// SyncScheduler — today's barrier semantics: every sampled client of round t
// trains from the same broadcast, uploads accumulate in client order, and the
// round's simulated time is the slowest participant's (bit-identical to the
// historical per-method loops for fixed seeds and any FP_NUM_THREADS).
//
// AsyncScheduler — an event-driven replay of the per-client device latencies
// from sysmodel/: K clients are in flight; whenever the earliest completion
// event fires, that client's update lands immediately with a FedAsync-style
// staleness-decayed coefficient alpha / (staleness + 1), and a fresh client
// is dispatched from the new model. Configurable straggler cutoffs discard
// updates slower than a budget, and client dropout vanishes a dispatched
// client with fixed probability. The event queue is ordered by
// (finish_time, dispatch_seq), all randomness comes from dedicated seeded
// streams, and training runs at dispatch time — so a replay is bit-identical
// for a fixed seed and any thread count.
#pragma once

#include "fed/runtime/engine.hpp"

namespace fp::fed {

class RoundScheduler {
 public:
  virtual ~RoundScheduler() = default;
  virtual RoundStats run_round(RoundEngine& eng, RoundMethod& m,
                               std::int64_t t) = 0;
};

class SyncScheduler final : public RoundScheduler {
 public:
  RoundStats run_round(RoundEngine& eng, RoundMethod& m, std::int64_t t) override;
};

class AsyncScheduler final : public RoundScheduler {
 public:
  AsyncScheduler(const AsyncConfig& cfg, std::uint64_t seed);

  /// Processes events until exactly one update has been APPLIED (stragglers
  /// and dropouts are churned through on the way, each refilling its slot).
  RoundStats run_round(RoundEngine& eng, RoundMethod& m, std::int64_t t) override;

 private:
  struct Event {
    double finish_s = 0.0;     ///< virtual time the server hears back
    std::uint64_t seq = 0;     ///< dispatch order, breaks finish-time ties
    TaskSpec task;
    Upload up;
    TimeBreakdown duration;    ///< the client's own train duration
    bool dropped_out = false;  ///< client vanished, never uploads
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.finish_s != b.finish_s) return a.finish_s > b.finish_s;
      return a.seq > b.seq;
    }
  };

  /// Dispatches `count` fresh clients at server round t: snapshot, train (in
  /// parallel within the group), and enqueue their completion events.
  void dispatch(RoundEngine& eng, RoundMethod& m, std::int64_t t,
                std::int64_t count, RoundStats& st);
  Event pop_next();

  AsyncConfig cfg_;
  Rng drop_rng_;
  double clock_s_ = 0.0;
  std::uint64_t seq_ = 0;
  bool filled_ = false;
  std::vector<Event> heap_;  ///< min-heap on (finish_s, seq) via Later
};

}  // namespace fp::fed
