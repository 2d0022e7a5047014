#include "fedprophet/fedprophet.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "attack/evaluate.hpp"
#include "core/parallel.hpp"
#include "fed/budget_exec.hpp"
#include "obs/metrics.hpp"

namespace fp::fedprophet {

FedProphet::FedProphet(fed::FedEnv& env, FedProphetConfig cfg)
    // Client streams Rng(seed + 1000 + k): the historical FedProphet seeds,
    // distinct from the baselines' 5000.
    : FederatedAlgorithm(env, cfg.fl, /*client_stream_base=*/1000),
      init_rng_(cfg.fl.seed ^ 0xfedbeef),
      cfg2_(std::move(cfg)),
      model_(cfg2_.model_spec, init_rng_),
      cascade_(model_,
               cascade::partition_model(cfg2_.model_spec, cfg2_.rmin_bytes,
                                        cfg2_.fl.batch_size),
               init_rng_),
      apa_(cfg2_.alpha_init, cfg2_.delta_alpha, cfg2_.gamma, cfg2_.apa),
      acc_(model_) {
  acc_.reset();
  aux_acc_.resize(cascade_.num_modules());
}

FedProphet::ClientReplica::ClientReplica(const FedProphet& server,
                                         std::span<const float> model_blob,
                                         std::size_t first_aux,
                                         std::span<const nn::ParamBlob> aux)
    : build_rng(0),  // replica init is overwritten by the loaded blobs
      model(server.model_.spec(), build_rng),
      cascade(model, server.cascade_.partition(), build_rng) {
  model.load_all(model_blob);
  for (std::size_t j = 0; j < aux.size(); ++j)
    cascade.load_aux(first_aux + j, aux[j]);
}

data::BatchIterator& FedProphet::client_batches(std::size_t k) {
  return clients_.batches(k, cfg2_.fl.batch_size);
}

float FedProphet::current_epsilon() const {
  // Module 1 always trains at the fixed input budget eps_0 (paper footnote 3).
  if (stage_ == 0) return cfg2_.fl.epsilon0;
  return apa_.epsilon();
}

std::int64_t FedProphet::input_dim_of_stage() const {
  const auto& mod = cascade_.partition().modules[stage_];
  return model_.spec().shape_before(mod.begin).numel();
}

void FedProphet::begin_dispatch(const std::vector<fed::TaskSpec>& tasks) {
  clients_.begin_round(tasks);
  round_lr_ = tasks.empty() ? lr_at(global_round_) : tasks.front().lr;
  round_eps_ = current_epsilon();

  // Minimum available performance among the cohort (Eq. 15): the last
  // clients_per_round dispatched devices. A sync barrier round dispatches
  // exactly that many at once (identical to min over the round's devices);
  // async single-client refills keep differentiating against the in-flight
  // cohort instead of degenerating to their own speed.
  for (const auto& task : tasks)
    if (task.has_device) perf_window_.push_back(task.device.avail_flops);
  const auto cap = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cfg2_.fl.clients_per_round));
  if (perf_window_.size() > cap)
    perf_window_.erase(perf_window_.begin(), perf_window_.end() - cap);
  perf_min_ = 1.0;
  if (!perf_window_.empty()) {
    perf_min_ = perf_window_.front();
    for (const double p : perf_window_) perf_min_ = std::min(perf_min_, p);
  }

  // Snapshot the global model + aux heads once; every client trains a
  // private replica restored from these blobs, so clients can run
  // concurrently on the shared pool without stepping on the server state.
  // The snapshot survives across dispatch groups until finalize_round
  // changes the server state (async dropout/straggler refills reuse it).
  if (broadcast_.empty()) {
    const std::size_t num_modules = cascade_.num_modules();
    const auto& channel = engine().channel();
    broadcast_bytes_ = 0;
    broadcast_ = channel.downlink(model_.save_all(), &broadcast_bytes_);
    broadcast_aux_.assign(num_modules, {});
    for (std::size_t j = stage_; j < num_modules; ++j)
      broadcast_aux_[j] =
          channel.downlink(cascade_.save_aux(j), &broadcast_bytes_);
  }
}

std::size_t FedProphet::assigned_module_end(const fed::TaskSpec& task) const {
  // Differentiated Module Assignment (Eq. 14/15).
  if (task.has_device) {
    const auto avail_mem = static_cast<std::int64_t>(
        static_cast<double>(task.device.avail_mem_bytes) *
        cfg2_.device_mem_scale);
    return assign_modules(model_.spec(), cascade_.partition(), stage_,
                          cfg2_.fl.batch_size, avail_mem,
                          task.device.avail_flops, perf_min_, cfg2_.dma);
  }
  // No device pool: with DMA everyone is a prophet.
  return cfg2_.dma ? cascade_.num_modules() : stage_ + 1;
}

double FedProphet::task_cost(const fed::TaskSpec& task) const {
  const auto& modules = cascade_.partition().modules;
  const auto& last = modules[assigned_module_end(task) - 1];
  return static_cast<double>(sys::module_forward_macs(
      model_.spec(), modules[stage_].begin, last.end, cfg2_.fl.batch_size,
      /*with_aux_head=*/!last.is_last));
}

fed::Upload FedProphet::train_client(const fed::TaskSpec& task) {
  const std::size_t num_modules = cascade_.num_modules();
  const std::size_t k = task.client;
  ClientReplica replica(*this, broadcast_, stage_,
                        std::span(broadcast_aux_).subspan(stage_));
  const std::size_t module_end = assigned_module_end(task);

  // Budget-aware execution (mem subsystem): plan the trained block's peak
  // against the budget bound to this dispatch and fall back to activation
  // checkpointing when it does not fit. No budget bound = zero-cost no-op.
  // FedProphet prices its work on the trainable backbone spec itself, so
  // the measured-plane bytes feed the swap decision unscaled (scale 1.0).
  const auto& part = cascade_.partition();
  const std::size_t plan_begin = part.modules[stage_].begin;
  const std::size_t plan_end = part.modules[module_end - 1].end;
  const bool plan_aux = !part.modules[module_end - 1].is_last;
  fed::Upload up;
  up.work.atom_begin = plan_begin;
  up.work.atom_end = plan_end;
  up.work.with_aux = plan_aux;
  up.work.pgd_steps = cfg2_.fl.pgd_steps;
  {
    // Aux heads resident in the replica beyond the trained one (which the
    // planner itself charges as parameter state when plan_aux is set).
    std::int64_t aux_params = 0;
    for (std::size_t j = stage_; j < num_modules; ++j)
      if (!(plan_aux && j == module_end - 1))
        aux_params += static_cast<std::int64_t>(broadcast_aux_[j].size());
    fed::apply_budgeted_execution(model_.spec(), plan_begin, plan_end,
                                  cfg2_.fl.batch_size, plan_aux,
                                  cfg2_.fl.pgd_steps > 0, aux_params,
                                  replica.model, /*pricing_scale=*/1.0,
                                  &up.work);
  }

  cascade::LocalTrainConfig tcfg;
  tcfg.module_begin = stage_;
  tcfg.module_end = module_end;
  tcfg.mu = cfg2_.mu;
  tcfg.eps_in = round_eps_;
  tcfg.pgd_steps = cfg2_.fl.pgd_steps;
  tcfg.sgd = cfg2_.fl.sgd;
  tcfg.sgd.lr = round_lr_;
  tcfg.compute = cfg2_.fl.compute;
  cascade::CascadeLocalTrainer trainer(replica.cascade, tcfg);
  auto& batches = client_batches(k);
  for (std::int64_t it = 0; it < cfg2_.fl.local_iters; ++it)
    trainer.train_batch(batches.next(), clients_.rng(k));

  // Stage the upload: trained atoms (Eq. 16) and the last assigned
  // module's auxiliary head (Eq. 17), each routed through the wire codec
  // with its view of the broadcast as the shared delta reference.
  const auto& channel = engine().channel();
  up.weight = task.weight;
  up.bytes_down = broadcast_bytes_;
  Payload p;
  p.atom_begin = trainer.atom_begin();
  p.atom_end = trainer.atom_end();
  p.module_end = module_end;
  p.atoms.reserve(p.atom_end - p.atom_begin);
  for (std::size_t a = p.atom_begin; a < p.atom_end; ++a)
    p.atoms.push_back(channel.uplink(replica.model.save_atom(a),
                                     model_.atom_view(broadcast_, a),
                                     &up.bytes_up));
  if (replica.cascade.aux_head(module_end - 1))
    p.aux = channel.uplink(replica.cascade.save_aux(module_end - 1),
                           broadcast_aux_[module_end - 1], &up.bytes_up);

  up.payload = std::move(p);
  return up;
}

void FedProphet::apply_update(const fed::TaskSpec& /*task*/, fed::Upload&& up,
                              fed::ApplyMode mode, float mix) {
  auto& p = std::any_cast<Payload&>(up.payload);
  if (mode == fed::ApplyMode::kBlend) {
    // One stale update lands as (1-mix)*current + mix*trained on exactly the
    // atoms (and aux head) the client trained; everything else keeps its
    // value through the partial average's membership rule. Atoms of modules
    // the cascade has already fixed are discarded: their E[max ||Delta z||]
    // has fed the next stage's budget (Eq. 11) and they must stay frozen.
    const std::size_t active_begin =
        cascade_.partition().modules[stage_].begin;
    for (std::size_t a = std::max(p.atom_begin, active_begin); a < p.atom_end;
         ++a) {
      acc_.add_dense_atom_blob(a, model_.save_atom(a), 1.0f - mix);
      acc_.add_dense_atom_blob(a, p.atoms[a - p.atom_begin], mix);
    }
    if (!p.aux.empty() && p.module_end >= stage_ + 1) {
      aux_acc_[p.module_end - 1].add(cascade_.save_aux(p.module_end - 1),
                                     1.0f - mix);
      aux_acc_[p.module_end - 1].add(p.aux, mix);
    }
  } else {
    for (std::size_t a = p.atom_begin; a < p.atom_end; ++a)
      acc_.add_dense_atom_blob(a, p.atoms[a - p.atom_begin], up.weight);
    if (!p.aux.empty()) aux_acc_[p.module_end - 1].add(p.aux, up.weight);
  }
}

void FedProphet::finalize_round(std::int64_t /*t*/) {
  clients_.end_round();
  acc_.finalize_into(model_);
  acc_.reset();
  for (std::size_t j = 0; j < aux_acc_.size(); ++j) {
    if (aux_acc_[j].empty()) continue;
    cascade_.load_aux(j, aux_acc_[j].average());
    aux_acc_[j].reset();
  }
  broadcast_.clear();  // server state changed: next dispatch re-snapshots

  const float eps = current_epsilon();
  eps_trace_.push_back(
      stage_ == 0
          ? static_cast<double>(cfg2_.fl.epsilon0)
          : static_cast<double>(eps) /
                std::sqrt(static_cast<double>(input_dim_of_stage())));
  ++global_round_;
}

void FedProphet::fix_current_module() {
  // Collect E[max ||Delta z_m||] from client data at the fixed module
  // (feeds eps for the next stage, Eq. 11).
  double mean_dz = 0.0, mean_dz_dim = 0.0;
  int samples = 0;
  const auto probe = std::min<std::size_t>(
      static_cast<std::size_t>(env_->num_clients()),
      5);  // a handful of clients suffices
  if (fed::RemoteDispatcher* remote = engine().remote()) {
    // The probed clients' data iterators and RNG streams live on their
    // owning workers: fan the probe out as a custom op and sum the per-client
    // statistics in client order, exactly as the local branch below does.
    comm::FrameWriter ctx;
    ctx.blob(model_.save_all());
    ctx.blob(cascade_.save_aux(stage_));
    ctx.u64(stage_);
    ctx.f32(current_epsilon());
    std::vector<std::size_t> clients(probe);
    for (std::size_t k = 0; k < probe; ++k) clients[k] = k;
    const auto frames =
        remote->run_custom(kNetOpProbeDz, ctx.data(), clients);
    for (const auto& frame : frames) {
      comm::FrameReader in(frame);
      mean_dz += in.f64();
      mean_dz_dim += in.f64();
      ++samples;
    }
  } else {
    // Each probed client runs on its own replica, exactly as a worker runs
    // the custom op; the statistics are summed in client order.
    const nn::ParamBlob model_blob = model_.save_all();
    const nn::ParamBlob aux_blob = cascade_.save_aux(stage_);
    const float eps = current_epsilon();
    std::vector<cascade::CascadeLocalTrainer::DzStats> stats(probe);
    core::parallel_tasks(static_cast<std::int64_t>(probe), [&](std::int64_t k) {
      const auto client = static_cast<std::size_t>(k);
      stats[client] = probe_dz(model_blob, aux_blob, stage_, eps, client);
    });
    for (const auto& st : stats) {
      mean_dz += st.mean_l2;
      mean_dz_dim += st.mean_per_dim;
      ++samples;
    }
  }
  mean_dz /= samples;
  mean_dz_dim /= samples;
  mean_dz_prev_ = mean_dz;

  auto& rec = stages_.back();
  rec.mean_dz = mean_dz;
  rec.mean_dz_per_dim = mean_dz_dim;
}

cascade::CascadeLocalTrainer::DzStats FedProphet::probe_dz(
    const nn::ParamBlob& model_blob, const nn::ParamBlob& aux_blob,
    std::size_t stage, float eps, std::size_t client) {
  // Rebuild the root's exact post-stage state and run the ||Delta z|| probe
  // on this client's data stream. The batch iterator and RNG advance once
  // per probed client, whether the probe runs here or on the owning worker.
  ClientReplica replica(*this, model_blob, stage, std::span(&aux_blob, 1));
  cascade::LocalTrainConfig tcfg;
  tcfg.module_begin = stage;
  tcfg.module_end = stage + 1;
  tcfg.mu = cfg2_.mu;
  tcfg.eps_in = eps;
  tcfg.pgd_steps = cfg2_.fl.pgd_steps;
  tcfg.compute = cfg2_.fl.compute;
  cascade::CascadeLocalTrainer trainer(replica.cascade, tcfg);
  return trainer.measure_output_perturbation(client_batches(client).next(),
                                             clients_.rng(client));
}

// ---- Distributed runtime (DESIGN.md §10) ------------------------------------

void FedProphet::net_state(comm::StateIO& io) {
  io(stage_);
  io(round_eps_);
  io(perf_min_);
  io(round_lr_);
  io(broadcast_bytes_);
  io.msg(broadcast_);
  const std::size_t num_modules = cascade_.num_modules();
  if (io.reading()) broadcast_aux_.assign(num_modules, {});
  for (std::size_t j = stage_; j < num_modules; ++j) io.msg(broadcast_aux_[j]);
}

void FedProphet::net_upload(fed::Upload& up, comm::StateIO& io) {
  if (io.reading()) up.payload = Payload{};
  auto& p = std::any_cast<Payload&>(up.payload);
  io(p.atom_begin);
  io(p.atom_end);
  io(p.module_end);
  bool has_aux = !p.aux.empty();
  io(has_aux);
  p.atoms.resize(p.atom_end - p.atom_begin);
  for (std::size_t a = p.atom_begin; a < p.atom_end; ++a)
    io.msg(p.atoms[a - p.atom_begin], model_.atom_view(broadcast_, a));
  if (has_aux) io.msg(p.aux, broadcast_aux_[p.module_end - 1]);
}

void FedProphet::net_custom_op(std::uint32_t op, comm::FrameReader& ctx,
                               std::size_t client, comm::FrameWriter& out) {
  if (op != kNetOpProbeDz)
    throw std::logic_error("FedProphet: unknown net custom op " +
                           std::to_string(op));
  const nn::ParamBlob model_blob = ctx.blob();
  const nn::ParamBlob aux_blob = ctx.blob();
  const auto stage = static_cast<std::size_t>(ctx.u64());
  const float eps = ctx.f32();
  const auto stats = probe_dz(model_blob, aux_blob, stage, eps, client);
  out.f64(stats.mean_l2);
  out.f64(stats.mean_per_dim);
}

std::pair<double, double> FedProphet::validate_prefix() {
  obs::PhaseTimer eval_phase(obs::Phase::kEval);
  attack::RobustEvalConfig ecfg;
  ecfg.epsilon = cfg2_.fl.epsilon0;
  ecfg.pgd_steps = 10;
  ecfg.max_samples = cfg2_.val_samples;
  ecfg.seed = 17;
  ecfg.compute = cfg2_.fl.compute;
  const data::Dataset& val = env_->test;
  const attack::ShardedNet net =
      cascade::shard_prefix(cascade_, stage_, attack::eval_shards(val, ecfg));
  return {attack::evaluate_clean(net, val, ecfg),
          attack::evaluate_pgd(net, val, ecfg)};
}

void FedProphet::train() {
  for (stage_ = 0; stage_ < cascade_.num_modules(); ++stage_) {
    stages_.push_back({});
    stages_.back().module = stage_;
    if (stage_ > 0) apa_.start_module(mean_dz_prev_);

    double best_score = -1.0;
    std::int64_t evals_since_best = 0;
    std::int64_t rounds_used = 0;
    for (std::int64_t r = 0; r < cfg2_.rounds_per_module; ++r) {
      run_round(global_round_);
      ++rounds_used;
      const bool do_eval =
          cfg2_.eval_every > 0 && ((r + 1) % cfg2_.eval_every == 0 ||
                                   r + 1 == cfg2_.rounds_per_module);
      if (!do_eval) continue;
      const auto [clean, adv] = validate_prefix();
      last_clean_ = clean;
      last_adv_ = adv;
      apa_.update(clean, adv, prev_final_ratio_);
      history_.push_back({global_round_, clean, adv, sim_time_.total(),
                          eps_trace_.back(), total_stats_.bytes_up,
                          total_stats_.bytes_down, total_stats_.peak_mem_bytes,
                          total_stats_.unique_participants,
                          total_stats_.agg_bytes_saved,
                          total_stats_.measured_comm_s});
      const double score = clean + adv;
      if (score > best_score + 1e-6) {
        best_score = score;
        evals_since_best = 0;
      } else if (cfg2_.patience_evals > 0 &&
                 ++evals_since_best >= cfg2_.patience_evals) {
        break;
      }
    }

    auto& rec = stages_.back();
    rec.rounds = rounds_used;
    rec.final_clean = last_clean_;
    rec.final_adv = last_adv_;
    rec.eps_used = current_epsilon();
    prev_final_ratio_ = last_adv_ > 1e-6 ? last_clean_ / last_adv_ : 0.0;
    fix_current_module();
  }
  stage_ = cascade_.num_modules() - 1;  // keep indices valid for callers
}

}  // namespace fp::fedprophet
