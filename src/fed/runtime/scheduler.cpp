#include "fed/runtime/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fp::fed {

// ---- SyncScheduler ----------------------------------------------------------

RoundStats SyncScheduler::run_round(RoundEngine& eng, RoundMethod& m,
                                    std::int64_t t) {
  RoundStats st;
  std::vector<TaskSpec> tasks;
  {
    obs::PhaseTimer sample_phase(obs::Phase::kSample);
    FP_TRACE_SCOPE("sample", "engine");
    tasks = eng.sample_tasks(t, eng.config().clients_per_round);

    // Availability churn: a sampled client may vanish between selection and
    // dispatch. Decided statelessly from the dedicated churn stream BEFORE any
    // dispatch, so dropped clients never train, never download, and never
    // consume a method's slot-order draws; survivors are re-slotted
    // contiguously. No-op when churn is off (every historical golden).
    if (eng.churn().enabled()) {
      std::vector<TaskSpec> alive;
      alive.reserve(tasks.size());
      for (auto& task : tasks) {
        if (eng.churn().drops(task.client, t)) {
          ++st.dropped_out;
          continue;
        }
        task.slot = alive.size();
        alive.push_back(task);
      }
      tasks = std::move(alive);
    }
  }

  {
    obs::PhaseTimer train_phase(obs::Phase::kTrain);
    FP_TRACE_SCOPE("begin_dispatch", "engine");
    if (RemoteDispatcher* remote = eng.remote())
      remote->begin_dispatch(m, tasks);
    else
      m.begin_dispatch(tasks);
  }

  const std::size_t n = tasks.size();
  const std::int64_t aggs = eng.config().agg.aggregators;
  const std::size_t groups =
      aggs > 0 ? std::min(static_cast<std::size_t>(aggs),
                          std::max<std::size_t>(n, 1))
               : 1;
  const comm::EdgeLink edge{eng.config().agg.up_mbps,
                            eng.config().agg.latency_s};
  const bool price_edge = aggs > 0 && eng.channel().network().enabled();

  st.dispatched = st.applied = n;
  const bool with_devices = !tasks.empty() && tasks.front().has_device;
  TimeBreakdown slowest;
  double slowest_total = -1.0;

  // One wave per edge aggregator (flat aggregation = a single wave over all
  // slots, bit-identical to the historical loop). Each wave trains its
  // contiguous slot group in parallel, folds the uploads into the server in
  // global slot order, and frees them before the next wave — so server-side
  // peak residency is O(group) upload blobs, not O(sampled). Because slot
  // grouping is contiguous and apply order is unchanged, the aggregate is
  // NUMERICALLY IDENTICAL to flat aggregation: the tree changes only
  // residency, backbone bytes (agg_bytes_saved), and the clock (one
  // edge→server hop per wave when the network model is on).
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t begin = n * g / groups;
    const std::size_t end = n * (g + 1) / groups;
    if (begin == end) continue;
    std::vector<Upload> uploads(end - begin);
    {
      obs::PhaseTimer train_phase(obs::Phase::kTrain);
      FP_TRACE_SCOPE_ARG("wave", "engine", "group",
                         static_cast<std::int64_t>(g));
      if (RemoteDispatcher* remote = eng.remote()) {
        // Distributed root (DESIGN.md §10): the group trains on the connected
        // workers. The dispatcher returns the same slot-ordered uploads the
        // local loop would have produced (decoded against this process's own
        // broadcast references), so everything below — byte accounting, sim
        // time, apply order — is unchanged and the round is bit-identical.
        st.measured_comm_s += remote->run_group(m, tasks, begin, end, uploads);
      } else {
        core::parallel_tasks(static_cast<std::int64_t>(end - begin),
                             [&](std::int64_t ti) {
                               const auto i = static_cast<std::size_t>(ti);
                               uploads[i] = eng.run_client(m, tasks[begin + i]);
                             });
      }
    }

    // Wave time: the slowest member's download + train + upload (the comm
    // term is zero unless comm.model_network is on, which keeps the pre-comm
    // goldens bit-identical). Priced before apply_update moves the uploads.
    obs::PhaseTimer agg_phase(obs::Phase::kAggregate);
    FP_TRACE_SCOPE_ARG("aggregate", "engine", "group",
                       static_cast<std::int64_t>(g));
    TimeBreakdown wave_slowest;
    double wave_total = -1.0;
    std::int64_t wave_bytes_up = 0;
    std::int64_t merged_bytes = 0;
    for (std::size_t i = begin; i < end; ++i) {
      Upload& up = uploads[i - begin];
      st.bytes_down += up.bytes_down;
      st.bytes_up += up.bytes_up;
      wave_bytes_up += up.bytes_up;
      merged_bytes = std::max(merged_bytes, up.bytes_up);
      st.peak_mem_bytes = std::max(st.peak_mem_bytes, up.peak_mem_bytes);
      st.over_budget += up.over_budget ? 1 : 0;
      if (with_devices) {
        const TimeBreakdown ti = client_sim_time(
            m.time_spec(eng.env()), tasks[i].device, up.work,
            eng.env().cost_cfg, eng.config().local_iters,
            eng.channel().network(), up.bytes_down, up.bytes_up);
        if (ti.total() > wave_total) {
          wave_total = ti.total();
          wave_slowest = ti;
        }
      }
      eng.note_participant(tasks[i].client);
      m.apply_update(tasks[i], std::move(up), ApplyMode::kAccumulate, 1.0f);
    }
    if (aggs > 0) {
      // The edge forwards ONE merged blob (sized like its largest member)
      // instead of every member's upload: those bytes never hit the backbone.
      st.agg_bytes_saved += wave_bytes_up - merged_bytes;
      if (price_edge) wave_slowest.comm_s += edge.upload_s(merged_bytes);
    }
    if (with_devices && wave_total >= 0.0 &&
        wave_slowest.total() > slowest_total) {
      slowest_total = wave_slowest.total();
      slowest = wave_slowest;
    }
  }
  {
    obs::PhaseTimer agg_phase(obs::Phase::kAggregate);
    FP_TRACE_SCOPE("finalize", "engine");
    m.finalize_round(t);
  }

  if (with_devices) st.time = slowest;
  st.unique_participants = eng.participant_count();
  return st;
}

// ---- AsyncScheduler ---------------------------------------------------------

AsyncScheduler::AsyncScheduler(const AsyncConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), drop_rng_(seed) {}

void AsyncScheduler::dispatch(RoundEngine& eng, RoundMethod& m, std::int64_t t,
                              std::int64_t count, RoundStats& st) {
  // The net layer validates this up front (fp_run exits with a SpecError);
  // this guard catches direct engine users.
  if (eng.remote())
    throw std::runtime_error(
        "distributed runtime: the async scheduler is not supported "
        "(net.role=root requires fl.scheduler=sync)");
  std::vector<TaskSpec> tasks;
  std::vector<char> dropped;
  {
    obs::PhaseTimer sample_phase(obs::Phase::kSample);
    FP_TRACE_SCOPE("sample", "engine");
    tasks = eng.sample_tasks(t, count);

    // Dropout is decided at dispatch from a dedicated stream, in slot order.
    dropped.assign(tasks.size(), 0);
    if (cfg_.dropout_prob > 0.0)
      for (auto& d : dropped) d = drop_rng_.uniform() < cfg_.dropout_prob;
    // Availability churn adds its own stateless mid-round dropouts on top
    // (drop_rng_'s draw sequence above is untouched, so enabling churn never
    // perturbs the async dropout stream).
    if (eng.churn().enabled())
      for (std::size_t i = 0; i < tasks.size(); ++i)
        if (eng.churn().drops(tasks[i].client, t)) dropped[i] = 1;
  }

  // Training runs at dispatch time against the dispatch snapshot, so a
  // client's computation is a pure function of (seed, dispatch order) no
  // matter when its completion event is consumed. Dropped clients train too
  // (their update is lost in transit): the device-latency model still needs
  // their ClientWork to place the loss event on the virtual clock.
  std::vector<Upload> uploads(tasks.size());
  {
    obs::PhaseTimer train_phase(obs::Phase::kTrain);
    FP_TRACE_SCOPE_ARG("dispatch", "engine", "count", count);
    m.begin_dispatch(tasks);
    core::parallel_tasks(static_cast<std::int64_t>(tasks.size()),
                         [&](std::int64_t ti) {
                           const auto i = static_cast<std::size_t>(ti);
                           uploads[i] = eng.run_client(m, tasks[i]);
                         });
  }

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Event ev;
    ev.seq = seq_++;
    ev.task = tasks[i];
    ev.dropped_out = dropped[i] != 0;
    // The broadcast went out the moment the client was dispatched; its
    // upload bytes are only counted if the server ever hears the event.
    st.bytes_down += uploads[i].bytes_down;
    st.peak_mem_bytes = std::max(st.peak_mem_bytes, uploads[i].peak_mem_bytes);
    st.over_budget += uploads[i].over_budget ? 1 : 0;
    if (tasks[i].has_device) {
      ev.duration = client_sim_time(
          m.time_spec(eng.env()), tasks[i].device, uploads[i].work,
          eng.env().cost_cfg, eng.config().local_iters,
          eng.channel().network(), uploads[i].bytes_down,
          uploads[i].bytes_up);
      // Hierarchical aggregation: the upload traverses the edge aggregator's
      // backbone before the server hears it (async edges forward updates
      // individually, so there is a hop but no merge savings).
      if (eng.config().agg.aggregators > 0 && eng.channel().network().enabled())
        ev.duration.comm_s +=
            comm::EdgeLink{eng.config().agg.up_mbps,
                           eng.config().agg.latency_s}
                .upload_s(uploads[i].bytes_up);
    }
    ev.up = std::move(uploads[i]);
    // The server hears back after the client's own duration, except that a
    // straggler cutoff caps how long it waits on any one dispatch. A dropped
    // client never reports: the server notices at the cutoff if one is set,
    // otherwise at the time the client would have finished.
    double delay = ev.duration.total();
    if (cfg_.straggler_cutoff_s > 0.0)
      delay = ev.dropped_out ? cfg_.straggler_cutoff_s
                             : std::min(delay, cfg_.straggler_cutoff_s);
    ev.finish_s = clock_s_ + delay;
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++st.dispatched;
  }
}

AsyncScheduler::Event AsyncScheduler::pop_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

RoundStats AsyncScheduler::run_round(RoundEngine& eng, RoundMethod& m,
                                     std::int64_t t) {
  RoundStats st;
  const double clock_at_entry = clock_s_;
  if (!filled_) {
    const std::int64_t k = cfg_.concurrency > 0
                               ? cfg_.concurrency
                               : eng.config().clients_per_round;
    dispatch(eng, m, t, std::max<std::int64_t>(1, k), st);
    filled_ = true;
  }

  // Churn through dropouts/stragglers until one update actually lands.
  for (std::int64_t churn = 0;; ++churn) {
    if (churn > 1000 + 10 * eng.config().num_clients)
      throw std::runtime_error(
          "AsyncScheduler: dropout/straggler settings starve aggregation");
    Event ev = pop_next();
    clock_s_ = std::max(clock_s_, ev.finish_s);

    if (ev.dropped_out) {
      ++st.dropped_out;
      dispatch(eng, m, t, 1, st);
      continue;
    }
    // The upload reached the server (stragglers arrive, just too late to be
    // used; the duration they are judged on includes their transfer time).
    st.bytes_up += ev.up.bytes_up;
    if (cfg_.straggler_cutoff_s > 0.0 &&
        ev.duration.total() > cfg_.straggler_cutoff_s) {
      ++st.dropped_stragglers;
      dispatch(eng, m, t, 1, st);
      continue;
    }

    // FedAsync-style staleness decay: alpha / (t - tau + 1), optionally
    // scaled by the client's relative data size q_k * N.
    const double staleness = static_cast<double>(t - ev.task.round);
    double mix = cfg_.alpha / (staleness + 1.0);
    if (cfg_.scale_by_data)
      mix *= static_cast<double>(ev.up.weight) *
             static_cast<double>(eng.config().num_clients);
    mix = std::clamp(mix, cfg_.min_mix, 1.0);

    const TimeBreakdown duration = ev.duration;
    eng.note_participant(ev.task.client);
    {
      obs::PhaseTimer agg_phase(obs::Phase::kAggregate);
      FP_TRACE_SCOPE("aggregate", "engine");
      m.apply_update(ev.task, std::move(ev.up), ApplyMode::kBlend,
                     static_cast<float>(mix));
      m.finalize_round(t);
    }
    st.applied = 1;
    st.mean_staleness = staleness;
    st.unique_participants = eng.participant_count();

    // Refill from the post-aggregation model: the fresh dispatch belongs to
    // server round t + 1.
    dispatch(eng, m, t + 1, 1, st);

    // The round's wall-clock advance, split by the applied client's own
    // compute/access/comm ratio (the async clock has no single-client
    // identity, so this is an attribution, not a measurement).
    const double delta = clock_s_ - clock_at_entry;
    const double total = duration.total();
    const double access_frac = total > 0.0 ? duration.access_s / total : 0.0;
    const double comm_frac = total > 0.0 ? duration.comm_s / total : 0.0;
    st.time.access_s = delta * access_frac;
    st.time.comm_s = delta * comm_frac;
    st.time.compute_s = delta - st.time.access_s - st.time.comm_s;
    return st;
  }
}

}  // namespace fp::fed
