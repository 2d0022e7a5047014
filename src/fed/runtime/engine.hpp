// Unified federated round engine.
//
// Every method in the repo (FedProphet and the five baselines) used to
// hand-roll the same synchronous round loop: sample clients -> broadcast ->
// parallel local training -> client-ordered aggregation -> simulated-time
// accounting. The engine owns that pipeline once, and a method (RoundMethod)
// only states
//  * WHAT each sampled client trains        (begin_dispatch, train_client), and
//  * HOW its wire blob lands in the server   (apply_update, finalize_round) —
//    i.e. which BlobAverager / PartialAccumulator the upload folds into.
// Scheduling is pluggable (scheduler.hpp): SyncScheduler reproduces the
// historical barrier semantics bit-for-bit; AsyncScheduler replays per-client
// device latencies as a deterministic event queue with staleness-decayed
// aggregation, straggler cutoffs, and client dropout. See DESIGN.md §4.
#pragma once

#include <any>
#include <cmath>
#include <memory>
#include <unordered_set>
#include <vector>

#include "comm/channel.hpp"
#include "fed/churn.hpp"
#include "fed/config.hpp"
#include "fed/env.hpp"
#include "fed/runtime/remote.hpp"
#include "fed/sampler.hpp"

namespace fp::fed {

/// One unit of client work handed to a method by a scheduler.
struct TaskSpec {
  std::int64_t round = 0;    ///< server round at dispatch (= model version)
  std::size_t slot = 0;      ///< index within the dispatch group
  std::size_t client = 0;    ///< global client id
  float lr = 0.0f;           ///< learning rate of the dispatch round
  float weight = 0.0f;       ///< q_k = |D_k| / sum |D_i|
  bool has_device = false;   ///< false when the env has no device pool
  sys::DeviceInstance device;
};

/// What a finished client hands back to the server: the simulated-cost
/// accounting plus a method-specific wire payload (parameter blobs, sliced
/// models, auxiliary heads, ...).
struct Upload {
  ClientWork work;
  float weight = 0.0f;  ///< q_k, echoed from the TaskSpec
  /// Wire bytes of this client's round-trip through the engine's Channel:
  /// the broadcast it downloaded and the encoded update it uploads. Filled
  /// by the method in train_client; the schedulers price transfer time and
  /// accumulate per-round byte totals from them.
  std::int64_t bytes_down = 0;
  std::int64_t bytes_up = 0;
  /// Measured arena high-water of this client's local training (bytes; 0
  /// unless the mem subsystem's measurement is on). Filled by the engine
  /// around train_client.
  std::int64_t peak_mem_bytes = 0;
  /// The measured peak exceeded the client's enforced budget — a reported
  /// (never fatal) diagnostic; see mem::MemConfig.
  bool over_budget = false;
  std::any payload;
};

/// How an upload folds into the server state.
enum class ApplyMode {
  /// Accumulate into the method's averager with weight q_k; the weighted
  /// mean lands on finalize_round (synchronous barrier rounds).
  kAccumulate,
  /// Blend ONE update into the current global state immediately:
  /// global <- (1 - mix) * global + mix * upload. finalize_round follows
  /// every kBlend apply (asynchronous aggregation events).
  kBlend,
};

/// A federated method as seen by the engine: WHAT each sampled client trains
/// (begin_dispatch, train_client) and HOW its wire blob lands in the server
/// (apply_update, finalize_round).
class RoundMethod {
 public:
  virtual ~RoundMethod() = default;

  /// Called once per dispatch group, sequentially, before any training:
  /// snapshot the server state the group trains from and make per-slot
  /// decisions (module assignment, slice plans, architecture choice) that
  /// consume shared RNG streams (in slot order).
  virtual void begin_dispatch(const std::vector<TaskSpec>& tasks) = 0;

  /// Trains one client. May run concurrently with other slots of the same
  /// dispatch group: must touch only per-client state (RNG stream, batch
  /// iterator) and task-private replicas of the snapshot.
  virtual Upload train_client(const TaskSpec& task) = 0;

  /// Folds one upload into the method's accumulators. Always called on the
  /// engine thread in a deterministic order (slot order for sync rounds,
  /// event order for async). `mix` is only meaningful for kBlend.
  virtual void apply_update(const TaskSpec& task, Upload&& up, ApplyMode mode,
                            float mix) = 0;

  /// Commits the accumulated updates into the global model(s) and runs any
  /// per-round server work (distillation, traces). `t` = server round index.
  virtual void finalize_round(std::int64_t t) = 0;

  /// Predicted relative cost of training `task`, read after begin_dispatch
  /// (on a worker, after net_state). A dispatch group starts its clients in
  /// descending cost (start_order) so the longest do not start last; which
  /// thread trains a client never changes its result (DESIGN.md §3).
  /// Default: every client costs the same.
  virtual double task_cost(const TaskSpec& /*task*/) const { return 1.0; }

  /// Model spec the latency simulation prices this method's ClientWork on.
  /// Baselines use the paper-shape cost spec; FedProphet prices on its
  /// trainable backbone (its atom ranges index the cascade partition).
  virtual const sys::ModelSpec& time_spec(const FedEnv& env) const {
    return env.cost_spec;
  }

  // Distributed runtime (DESIGN.md §10). Both hooks are one symmetric
  // function for the sending and the receiving end (comm::StateIO).

  /// The dispatch state train_client reads. A distributed root writes it
  /// once per dispatch after begin_dispatch (blobs as the broadcast messages
  /// begin_dispatch's downlinks encoded); a worker reads it in place of
  /// begin_dispatch before training its owned tasks.
  virtual void net_state(comm::StateIO& io) = 0;

  /// One upload's payload. A worker writes it after train_client (blobs as
  /// the messages its uplinks encoded); the root reads it, decoding against
  /// its own broadcast references, into what the fused uplink would have
  /// handed apply_update. The Upload's base fields travel separately.
  virtual void net_upload(Upload& up, comm::StateIO& io) = 0;

  /// Worker: method-specific auxiliary op (RemoteDispatcher::run_custom).
  /// The default rejects every op.
  virtual void net_custom_op(std::uint32_t op, comm::FrameReader& ctx,
                             std::size_t client, comm::FrameWriter& out);
};

/// What one engine round did (one barrier round, or one async aggregation
/// event plus any straggler/dropout churn processed on the way).
struct RoundStats {
  TimeBreakdown time;  ///< simulated wall-clock advance of this round
  std::size_t dispatched = 0;
  std::size_t applied = 0;
  std::size_t dropped_stragglers = 0;
  std::size_t dropped_out = 0;
  double mean_staleness = 0.0;  ///< staleness of the applied update(s)
  std::int64_t bytes_down = 0;  ///< wire bytes broadcast to clients this round
  std::int64_t bytes_up = 0;    ///< wire bytes received from clients this round
  std::int64_t peak_mem_bytes = 0;  ///< max measured client peak (0 = mem off)
  std::size_t over_budget = 0;      ///< clients whose peak exceeded their budget
  /// Distinct clients with at least one applied update since engine start
  /// (cumulative — the engine tracks the set, rounds report its size).
  std::int64_t unique_participants = 0;
  /// Backbone bytes the edge aggregators absorbed this round (0 when flat).
  std::int64_t agg_bytes_saved = 0;
  /// Measured wire-transfer seconds of this round's remote dispatch groups
  /// (0 outside a distributed root run) — the real-clock counterpart the
  /// modeled comm_s is checked against (DESIGN.md §10).
  double measured_comm_s = 0.0;
  /// Real wall-clock seconds this engine round took (steady clock, measured
  /// by RoundEngine::run_round around the scheduler; DESIGN.md §11).
  double round_wall_s = 0.0;
};

/// The order a dispatch group of `n` tasks starts training in: positions
/// 0..n-1 of `tasks` by descending m.task_cost, ties in slot order.
std::vector<std::size_t> start_order(const RoundMethod& m,
                                     const TaskSpec* tasks, std::size_t n);

class RoundScheduler;

/// Owns the sample -> dispatch -> train -> upload -> aggregate -> simulated
/// time pipeline shared by every federated method.
class RoundEngine {
 public:
  /// Builds the scheduler selected by cfg.scheduler.
  RoundEngine(FedEnv& env, const FlConfig& cfg);
  ~RoundEngine();

  /// Runs one engine round of `m` at server round t.
  RoundStats run_round(RoundMethod& m, std::int64_t t);

  const FlConfig& config() const { return cfg_; }
  FedEnv& env() { return *env_; }

  /// Every method download/upload routes through this channel (wire codec +
  /// byte accounting + network model). Const and thread-safe: clients call
  /// uplink concurrently from train_client.
  const comm::Channel& channel() const { return channel_; }

  /// The distributed dispatcher of a root run, with its workers connected
  /// (nullptr otherwise). Owned by the net layer, carried on the environment.
  RemoteDispatcher* remote() const { return env_->remote; }

  float lr_at(std::int64_t t) const {
    return cfg_.lr0 * std::pow(cfg_.lr_decay, static_cast<float>(t));
  }

  /// Samples `count` distinct clients for a dispatch at round t, with their
  /// device availability (persistent per-client binding when the env carries
  /// one, otherwise a fresh draw per task). Used by schedulers.
  std::vector<TaskSpec> sample_tasks(std::int64_t t, std::int64_t count);

  /// Trains one client through the method, under the configured memory
  /// plane: when cfg.mem is active, a mem::ClientMemScope (budget derived
  /// from the task's device availability, or the fixed override) is bound
  /// around train_client, and the measured peak + budget diagnostic land in
  /// the Upload. Schedulers call this instead of m.train_client directly.
  Upload run_client(RoundMethod& m, const TaskSpec& task);

  /// The budget (bytes, trainable-model scale) client training under `task`
  /// is scoped to; 0 = unbudgeted.
  std::int64_t client_budget_bytes(const TaskSpec& task) const;

  /// Availability churn process (DESIGN.md §9; disabled unless cfg.churn).
  const ChurnProcess& churn() const { return churn_; }

  /// Participation bookkeeping: schedulers record every applied client.
  void note_participant(std::size_t client) { participants_.insert(client); }
  std::int64_t participant_count() const {
    return static_cast<std::int64_t>(participants_.size());
  }

 private:
  FedEnv* env_;
  FlConfig cfg_;
  ClientSampler sampler_;
  comm::Channel channel_;
  ChurnProcess churn_;
  std::unordered_set<std::size_t> participants_;
  std::unique_ptr<RoundScheduler> scheduler_;
};

}  // namespace fp::fed
