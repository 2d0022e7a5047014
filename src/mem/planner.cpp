#include "mem/planner.hpp"

#include <algorithm>
#include <stdexcept>

#include "mem/arena.hpp"
#include "obs/trace.hpp"

namespace fp::mem {

namespace {

constexpr std::int64_t kF = 4;  // bytes per float

/// One planner unit: a layer of a plain atom, or a whole residual block.
struct Unit {
  std::string label;
  std::size_t atom = 0;            ///< atom index in the model
  std::int64_t in_numel = 0;       ///< per-sample input elements
  std::int64_t out_numel = 0;      ///< per-sample output elements
  std::int64_t cache_fwd_bytes = 0;  ///< per-batch, born at forward
  std::int64_t cache_bwd_bytes = 0;  ///< per-batch, born at backward
  std::int64_t macs = 0;           ///< per-sample forward MACs
};

/// Cache/scratch bytes one layer's forward (+ backward) leaves resident in
/// this implementation, per batch. See the layer sources in src/nn/.
void layer_cache_bytes(const sys::LayerSpec& l, const sys::TensorShape& in,
                       std::int64_t batch, bool runtime, std::int64_t* fwd,
                       std::int64_t* bwd) {
  const sys::TensorShape out = sys::out_shape(l, in);
  *fwd = 0;
  *bwd = 0;
  if (!runtime) {
    // Idealized: only the output activation the analytic model counts (the
    // analytic convention treats ReLU as in-place, sys::atom_activation_numel).
    if (l.kind != sys::LayerKind::kReLU) *fwd = batch * out.numel() * kF;
    return;
  }
  switch (l.kind) {
    case sys::LayerKind::kConv2d: {
      const std::int64_t cols_rows = l.in_channels * l.kernel * l.kernel;
      const std::int64_t batch_cols = batch * out.h * out.w;
      *fwd = batch * in.numel() * kF               // cached_input_ copy
             + cols_rows * batch_cols * kF         // scratch_cols_ (im2col)
             + l.out_channels * batch_cols * kF;   // scratch_iocols_
      *bwd = cols_rows * batch_cols * kF;          // scratch_grad_cols_
      break;
    }
    case sys::LayerKind::kLinear:
      *fwd = batch * in.numel() * kF;  // cached_input_ copy
      break;
    case sys::LayerKind::kBatchNorm2d:
      *fwd = batch * in.numel() * kF + in.c * kF;  // xhat + inv_std
      break;
    case sys::LayerKind::kReLU:
      *fwd = batch * out.numel() * kF;  // mask
      break;
    case sys::LayerKind::kMaxPool2d:
      *fwd = batch * out.numel() * 8;  // int64 argmax routing
      break;
    case sys::LayerKind::kGlobalAvgPool:
    case sys::LayerKind::kFlatten:
      break;
  }
}

/// Expands atoms [begin, end) into planner units.
std::vector<Unit> build_units(const sys::ModelSpec& model, std::size_t begin,
                              std::size_t end, std::int64_t batch, bool runtime) {
  std::vector<Unit> units;
  sys::TensorShape s = model.shape_before(begin);
  for (std::size_t a = begin; a < end; ++a) {
    const auto& atom = model.atoms[a];
    if (!atom.residual) {
      sys::TensorShape cur = s;
      for (std::size_t li = 0; li < atom.layers.size(); ++li) {
        const auto& l = atom.layers[li];
        Unit u;
        u.label = atom.name + "/" + std::to_string(li);
        u.atom = a;
        u.in_numel = cur.numel();
        u.macs = sys::layer_forward_macs(l, cur);
        layer_cache_bytes(l, cur, batch, runtime, &u.cache_fwd_bytes,
                          &u.cache_bwd_bytes);
        cur = sys::out_shape(l, cur);
        u.out_numel = cur.numel();
        units.push_back(std::move(u));
      }
    } else {
      // A residual block is an indivisible unit: sum the internal layers'
      // caches over the main and shortcut paths plus the sum-ReLU mask.
      Unit u;
      u.label = atom.name;
      u.atom = a;
      u.in_numel = s.numel();
      u.macs = sys::atom_forward_macs(atom, s);
      const sys::TensorShape out = sys::atom_out_shape(atom, s);
      u.out_numel = out.numel();
      if (runtime) {
        sys::TensorShape cur = s;
        for (const auto& l : atom.layers) {
          std::int64_t f = 0, b = 0;
          layer_cache_bytes(l, cur, batch, true, &f, &b);
          u.cache_fwd_bytes += f;
          u.cache_bwd_bytes += b;
          cur = sys::out_shape(l, cur);
        }
        cur = s;
        for (const auto& l : atom.shortcut) {
          std::int64_t f = 0, b = 0;
          layer_cache_bytes(l, cur, batch, true, &f, &b);
          u.cache_fwd_bytes += f;
          u.cache_bwd_bytes += b;
          cur = sys::out_shape(l, cur);
        }
        u.cache_fwd_bytes += batch * out.numel() * kF;  // cached_sum_mask_
      } else {
        u.cache_fwd_bytes = batch * sys::atom_activation_numel(atom, s) * kF;
      }
      units.push_back(std::move(u));
    }
    s = sys::atom_out_shape(atom, s);
  }
  return units;
}

/// Greedy best-fit-decreasing offset assignment: place big intervals first,
/// each at the lowest offset that does not overlap any time-intersecting
/// placed interval. Returns max(offset + bytes).
std::int64_t assign_offsets(std::vector<Interval>& intervals) {
  std::vector<std::size_t> order(intervals.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (intervals[a].bytes != intervals[b].bytes)
      return intervals[a].bytes > intervals[b].bytes;
    return a < b;  // deterministic tie-break
  });
  std::int64_t peak = 0;
  std::vector<std::size_t> placed;
  std::vector<std::pair<std::int64_t, std::int64_t>> busy;  // offset ranges
  for (const std::size_t i : order) {
    auto& iv = intervals[i];
    busy.clear();
    for (const std::size_t j : placed) {
      const auto& other = intervals[j];
      const bool time_overlap =
          iv.first_use <= other.last_use && other.first_use <= iv.last_use;
      if (time_overlap) busy.emplace_back(other.offset, other.offset + other.bytes);
    }
    std::sort(busy.begin(), busy.end());
    std::int64_t cursor = 0;
    for (const auto& [lo, hi] : busy) {
      if (lo - cursor >= iv.bytes) break;  // gap fits
      cursor = std::max(cursor, hi);
    }
    iv.offset = cursor;
    peak = std::max(peak, cursor + iv.bytes);
    placed.push_back(i);
  }
  return peak;
}

std::int64_t liveness_peak(const std::vector<Interval>& intervals, int steps) {
  std::int64_t peak = 0;
  for (int t = 0; t < steps; ++t) {
    std::int64_t live = 0;
    for (const auto& iv : intervals)
      if (iv.first_use <= t && t <= iv.last_use) live += iv.bytes;
    peak = std::max(peak, live);
  }
  return peak;
}

/// Per-atom unit index ranges of the checkpoint segments.
std::vector<std::pair<std::size_t, std::size_t>> segment_unit_ranges(
    const std::vector<Unit>& units, std::size_t atom_begin,
    const std::vector<std::size_t>& starts) {
  std::vector<std::pair<std::size_t, std::size_t>> segs;
  if (starts.empty()) {
    segs.emplace_back(0, units.size());
    return segs;
  }
  if (starts.front() != atom_begin)
    throw std::invalid_argument("planner: first checkpoint start != atom_begin");
  for (std::size_t s = 0; s < starts.size(); ++s) {
    const std::size_t atom_lo = starts[s];
    const std::size_t atom_hi =
        s + 1 < starts.size() ? starts[s + 1] : static_cast<std::size_t>(-1);
    std::size_t lo = units.size(), hi = 0;
    for (std::size_t u = 0; u < units.size(); ++u)
      if (units[u].atom >= atom_lo && units[u].atom < atom_hi) {
        lo = std::min(lo, u);
        hi = std::max(hi, u + 1);
      }
    if (lo >= hi) throw std::invalid_argument("planner: empty checkpoint segment");
    segs.emplace_back(lo, hi);
  }
  return segs;
}

}  // namespace

MemPlan plan_module_memory(const sys::ModelSpec& model, const PlanRequest& req) {
  FP_TRACE_SCOPE_ARG("plan_module_memory", "mem", "atoms",
                     static_cast<std::int64_t>(req.atom_end - req.atom_begin));
  if (req.atom_begin >= req.atom_end || req.atom_end > model.atoms.size())
    throw std::invalid_argument("plan_module_memory: bad atom range");
  const bool runtime = req.include_runtime_scratch;
  const std::int64_t B = req.batch_size;
  const auto units =
      build_units(model, req.atom_begin, req.atom_end, B, runtime);
  const auto segs = segment_unit_ranges(units, req.atom_begin,
                                        req.checkpoint_starts);
  const bool ckpt = segs.size() > 1;
  const std::size_t U = units.size();
  const std::size_t k = segs.size();

  // Timeline: forward steps 0..U-1, aux-head/loss step U, then per segment
  // (last first): recompute steps (non-final segments only) followed by
  // backward steps in reverse unit order.
  std::vector<int> bwd_step(U, -1), rec_step(U, -1);
  std::vector<int> seg_of(U, 0), seg_fwd_end(k, 0), seg_bwd_end(k, 0),
      seg_rec_end(k, -1);
  int pos = static_cast<int>(U) + 1;
  for (std::size_t s = 0; s < k; ++s) {
    for (std::size_t u = segs[s].first; u < segs[s].second; ++u)
      seg_of[u] = static_cast<int>(s);
    seg_fwd_end[s] = static_cast<int>(segs[s].second) - 1;
  }
  for (std::size_t si = k; si-- > 0;) {
    if (ckpt && si != k - 1) {
      for (std::size_t u = segs[si].first; u < segs[si].second; ++u)
        rec_step[u] = pos++;
      seg_rec_end[si] = pos - 1;
    }
    for (std::size_t u = segs[si].second; u-- > segs[si].first;)
      bwd_step[u] = pos++;
    seg_bwd_end[si] = pos - 1;
  }
  const int T = pos;

  MemPlan plan;
  plan.timeline_steps = T;

  // Parameter state of the trained range: weights + gradients + momentum,
  // matching the analytic 3x convention, plus caller-known extras.
  std::int64_t params = 0;
  for (std::size_t a = req.atom_begin; a < req.atom_end; ++a)
    params += sys::atom_param_count(model.atoms[a]);
  if (req.with_aux_head) {
    const sys::TensorShape out = model.shape_before(req.atom_end);
    params += out.c * model.num_classes + model.num_classes;
  }
  plan.resident_bytes = 3 * params * kF + req.resident_extra_bytes;
  plan.intervals.push_back({"param_state", plan.resident_bytes, 0, T - 1, -1});

  const std::int64_t in_bytes = B * units.front().in_numel * kF;
  if (runtime) {
    // Module input (z_train, held by the trainer for the whole step) plus the
    // PGD working set: delta, x_adv, ascent grad, and the pre-attack copy —
    // absent for standard-training clients.
    plan.intervals.push_back({"module_input", in_bytes, 0, T - 1, -1});
    if (req.adversarial)
      plan.intervals.push_back({"pgd_workset", 4 * in_bytes, 0, T - 1, -1});
  } else {
    plan.intervals.push_back({"module_input", in_bytes, 0, bwd_step[0], -1});
  }

  for (std::size_t u = 0; u < U; ++u) {
    const auto& unit = units[u];
    const int s = seg_of[u];
    const bool final_seg = s == static_cast<int>(k) - 1;
    if (unit.cache_fwd_bytes > 0) {
      // Born at forward; in plain runtime execution layer caches stay
      // resident until the pass ends (they are only overwritten by the next
      // forward); checkpointing drops them at the segment boundary and
      // recomputes them for the segment's backward.
      int die;
      if (!ckpt) {
        die = runtime ? T - 1 : bwd_step[u];
      } else {
        die = final_seg ? seg_bwd_end[s] : seg_fwd_end[s];
      }
      plan.intervals.push_back(
          {unit.label + ":cache", unit.cache_fwd_bytes,
           static_cast<int>(u), die, -1});
      if (ckpt && !final_seg)
        plan.intervals.push_back({unit.label + ":cache'", unit.cache_fwd_bytes,
                                  rec_step[u], seg_bwd_end[s], -1});
    }
    if (runtime && unit.cache_bwd_bytes > 0)
      plan.intervals.push_back({unit.label + ":bwd_scratch",
                                unit.cache_bwd_bytes, bwd_step[u],
                                ckpt ? seg_bwd_end[s] : T - 1, -1});
    if (runtime) {
      // Flowing activation: consumed by the next unit's forward (or the
      // aux/loss step), and again during recompute.
      plan.intervals.push_back({unit.label + ":out", B * unit.out_numel * kF,
                                static_cast<int>(u), static_cast<int>(u) + 1,
                                -1});
      if (ckpt && rec_step[u] >= 0)
        plan.intervals.push_back({unit.label + ":out'", B * unit.out_numel * kF,
                                  rec_step[u], rec_step[u] + 1, -1});
      // Gradient flowing into this unit's backward (its output gradient).
      const int born = u + 1 < U ? bwd_step[u + 1] : static_cast<int>(U);
      plan.intervals.push_back({unit.label + ":grad", B * unit.out_numel * kF,
                                born, bwd_step[u], -1});
    }
  }

  // Stored segment-boundary inputs: every recomputed segment keeps a copy of
  // its input from the forward pass until its recompute consumes it.
  if (ckpt) {
    for (std::size_t s = 0; s + 1 < k; ++s) {
      const std::size_t first = segs[s].first;
      const int born = first == 0 ? 0 : static_cast<int>(first) - 1;
      plan.intervals.push_back({"seg" + std::to_string(s) + ":input",
                                B * units[first].in_numel * kF, born,
                                seg_rec_end[s], -1});
    }
  }

  if (req.with_aux_head && runtime) {
    // GAP output + flatten + linear input copy + logits + CE probabilities.
    const sys::TensorShape out = model.shape_before(req.atom_end);
    const std::int64_t aux = B * (2 * out.c + 2 * model.num_classes) * kF;
    plan.intervals.push_back(
        {"aux_head", aux, static_cast<int>(U), bwd_step[U - 1], -1});
  }

  plan.peak_bytes = assign_offsets(plan.intervals);
  plan.liveness_peak_bytes = liveness_peak(plan.intervals, T);

  if (ckpt) {
    std::int64_t total_macs = 0, recomputed_macs = 0;
    for (std::size_t u = 0; u < U; ++u) {
      total_macs += units[u].macs;
      if (rec_step[u] >= 0) recomputed_macs += units[u].macs;
    }
    if (total_macs > 0)
      plan.recompute_fwd_frac =
          static_cast<double>(recomputed_macs) / static_cast<double>(total_macs);
  }
  return plan;
}

std::int64_t replica_resident_bytes(const sys::ModelSpec& model,
                                    std::size_t atom_begin, std::size_t atom_end,
                                    std::int64_t batch,
                                    std::int64_t aux_params_loaded) {
  std::int64_t total_params = 0, range_params = 0;
  for (std::size_t a = 0; a < model.atoms.size(); ++a) {
    const std::int64_t p = sys::atom_param_count(model.atoms[a]);
    total_params += p;
    if (a >= atom_begin && a < atom_end) range_params += p;
  }
  // Weights + gradients of the untrained remainder and of loaded aux heads
  // (the trained range's 3x state is the planner's param_state interval).
  std::int64_t bytes = 2 * (total_params - range_params) * kF +
                       2 * aux_params_loaded * kF;
  bytes += batch * model.input.numel() * kF;  // raw input batch
  // Frozen-prefix forward allowance: runs cache-free, so only a couple of
  // flowing activations are ever live.
  std::int64_t max_act = model.input.numel();
  sys::TensorShape s = model.input;
  for (std::size_t a = 0; a < atom_begin; ++a) {
    s = sys::atom_out_shape(model.atoms[a], s);
    max_act = std::max(max_act, s.numel());
  }
  if (atom_begin > 0) bytes += 2 * batch * max_act * kF;
  return bytes;
}

std::vector<std::size_t> choose_checkpoint_starts(const sys::ModelSpec& model,
                                                  const PlanRequest& req,
                                                  std::int64_t budget_bytes) {
  const std::size_t natoms = req.atom_end - req.atom_begin;
  if (natoms < 2) return {};
  PlanRequest probe = req;
  probe.checkpoint_starts.clear();
  if (plan_module_memory(model, probe).peak_bytes <= budget_bytes) return {};

  // Per-atom forward-cache weight, for balanced contiguous grouping.
  std::vector<std::int64_t> atom_cache(natoms, 0);
  for (const auto& u : build_units(model, req.atom_begin, req.atom_end,
                                   req.batch_size, req.include_runtime_scratch))
    atom_cache[u.atom - req.atom_begin] += u.cache_fwd_bytes;
  std::int64_t total = 0;
  for (const auto c : atom_cache) total += c;

  std::vector<std::size_t> best;
  std::int64_t best_peak = -1;
  for (std::size_t k = 2; k <= natoms; ++k) {
    std::vector<std::size_t> starts;
    if (k == natoms) {
      // Finest segmentation: one atom per segment (the greedy cut below can
      // merge small-cache atoms and never reach it).
      for (std::size_t a = 0; a < natoms; ++a)
        starts.push_back(req.atom_begin + a);
    } else {
      // Greedy: cut whenever the running cache weight passes total/k.
      starts.push_back(req.atom_begin);
      std::int64_t acc = 0;
      const std::int64_t target = (total + static_cast<std::int64_t>(k) - 1) /
                                  static_cast<std::int64_t>(k);
      for (std::size_t a = 0; a < natoms; ++a) {
        if (acc >= target && starts.size() < k && a > 0 &&
            starts.back() != req.atom_begin + a) {
          starts.push_back(req.atom_begin + a);
          acc = 0;
        }
        acc += atom_cache[a];
      }
    }
    if (starts.size() < 2) continue;
    probe.checkpoint_starts = starts;
    const auto plan = plan_module_memory(model, probe);
    if (plan.peak_bytes <= budget_bytes) return starts;
    if (best_peak < 0 || plan.peak_bytes < best_peak) {
      best_peak = plan.peak_bytes;
      best = starts;
    }
  }
  return best;  // nothing fits: lowest-peak segmentation, best effort
}

ClientExecution plan_client_execution(const sys::ModelSpec& model,
                                      const PlanRequest& req) {
  ClientExecution exec;
  if (!scope_active()) return exec;
  PlanRequest plain = req;
  plain.checkpoint_starts.clear();
  const auto plan = plan_module_memory(model, plain);
  exec.planned_peak_bytes = plan.peak_bytes;
  exec.planned_exec_peak_bytes = plan.peak_bytes;

  const Budget* budget = current_budget();
  if (!budget || !checkpointing_enabled() ||
      plan.peak_bytes <= budget->avail_mem_bytes)
    return exec;
  exec.checkpoint_starts =
      choose_checkpoint_starts(model, plain, budget->avail_mem_bytes);
  if (exec.checkpoint_starts.empty()) return exec;  // single atom: no cut
  PlanRequest ck = plain;
  ck.checkpoint_starts = exec.checkpoint_starts;
  const auto ck_plan = plan_module_memory(model, ck);
  exec.planned_exec_peak_bytes = ck_plan.peak_bytes;
  exec.recompute_fwd_frac = ck_plan.recompute_fwd_frac;
  return exec;
}

}  // namespace fp::mem
