// Liveness-based static memory planner (DESIGN.md §6).
//
// Given a module's atom range and batch size, the planner expands the range
// into per-layer units, walks one forward + backward training traversal as a
// timeline, and emits first-use/last-use intervals for every buffer the
// traversal touches. A greedy best-fit assignment packs the intervals into
// offsets of one address space; the resulting `peak_bytes` is the measured-
// plane counterpart of the analytic sys::module_train_mem_bytes.
//
// Two fidelity modes:
//  * include_runtime_scratch = false — the idealized activation-liveness
//    plan: module input, per-unit output activations, parameter state. Its
//    peak is provably <= the analytic requirement (same terms, shorter
//    lifetimes), which is the partitioner cross-check.
//  * include_runtime_scratch = true (default) — models what THIS
//    implementation actually allocates: layer input copies, im2col unfold
//    and gather scratch, flowing activations, transient gradients, PGD
//    perturbation copies. This is the plan execution decisions are made on.
//
// The same machinery prices activation checkpointing: a plan built with
// checkpoint segment starts models dropped-after-forward caches, stored
// segment-boundary inputs, and the recompute phase, yielding both the
// checkpointed peak and the extra forward fraction re-executed per backward.
#pragma once

#include <string>
#include <vector>

#include "sysmodel/layer_spec.hpp"

namespace fp::mem {

/// One buffer's lifetime on the traversal timeline and its assigned offset.
struct Interval {
  std::string label;
  std::int64_t bytes = 0;
  int first_use = 0;  ///< timeline step the buffer is born (inclusive)
  int last_use = 0;   ///< last timeline step the buffer is read (inclusive)
  std::int64_t offset = -1;  ///< assigned slab offset (best-fit)
};

struct MemPlan {
  std::vector<Interval> intervals;
  /// Address-space high-water of the best-fit assignment: max(offset+bytes).
  std::int64_t peak_bytes = 0;
  /// Max over timeline steps of the live byte sum (assignment lower bound).
  std::int64_t liveness_peak_bytes = 0;
  /// Whole-timeline resident bytes (parameter state + caller extras).
  std::int64_t resident_bytes = 0;
  int timeline_steps = 0;
  /// Fraction of the module's forward MACs re-executed per backward
  /// traversal by the checkpoint plan (0 for plain execution).
  double recompute_fwd_frac = 0.0;
};

struct PlanRequest {
  std::size_t atom_begin = 0;
  std::size_t atom_end = 0;
  std::int64_t batch_size = 1;
  bool with_aux_head = false;
  /// Ascending atom indices starting each checkpoint segment (the first must
  /// equal atom_begin). Empty = plain execution.
  std::vector<std::size_t> checkpoint_starts;
  /// The step runs a PGD inner maximization: the runtime plan reserves its
  /// working set (perturbation, adversarial copy, ascent gradient, pre-attack
  /// copy). False for standard-training clients (e.g. FedRBN's memory-poor
  /// path).
  bool adversarial = true;
  bool include_runtime_scratch = true;
  /// Extra whole-timeline resident bytes the caller knows about (the rest of
  /// the model replica, loaded aux heads, optimizer state, frozen-prefix
  /// caches, the raw input batch).
  std::int64_t resident_extra_bytes = 0;
};

MemPlan plan_module_memory(const sys::ModelSpec& model, const PlanRequest& req);

/// Whole-timeline resident bytes of a full-model replica training atoms
/// [begin, end): the out-of-range weights + gradients, loaded auxiliary-head
/// state, the raw input batch, and a flowing-activation allowance for the
/// frozen-prefix forward (which runs cache-free under a client scope). Feeds
/// PlanRequest::resident_extra_bytes.
std::int64_t replica_resident_bytes(const sys::ModelSpec& model,
                                    std::size_t atom_begin, std::size_t atom_end,
                                    std::int64_t batch,
                                    std::int64_t aux_params_loaded);

/// Picks checkpoint segment starts (atom granularity, fewest segments first)
/// so the planned peak fits `budget_bytes`. Falls back to the finest
/// segmentation when nothing fits (best effort; the caller sees the residual
/// overshoot through the returned plan). Empty when the plain plan already
/// fits or the range is a single atom.
std::vector<std::size_t> choose_checkpoint_starts(const sys::ModelSpec& model,
                                                  const PlanRequest& req,
                                                  std::int64_t budget_bytes);

/// One-stop execution decision for a client's local training step, reading
/// the budget and checkpointing permission bound to this thread
/// (mem::ClientMemScope). Zero-cost no-op when no scope is bound.
struct ClientExecution {
  std::vector<std::size_t> checkpoint_starts;  ///< empty = plain execution
  std::int64_t planned_peak_bytes = 0;       ///< plain-execution plan peak
  std::int64_t planned_exec_peak_bytes = 0;  ///< peak of the chosen execution
  double recompute_fwd_frac = 0.0;           ///< of the chosen execution
  bool checkpointed() const { return !checkpoint_starts.empty(); }
};
ClientExecution plan_client_execution(const sys::ModelSpec& model,
                                      const PlanRequest& req);

/// Rescales measured trainable-model bytes onto a paper-shape pricing spec's
/// scale (the inverse of the device_mem_scale mapping, DESIGN.md §1).
inline std::int64_t to_pricing_scale(std::int64_t bytes,
                                     double device_mem_scale) {
  if (bytes <= 0 || device_mem_scale <= 0.0) return 0;
  return static_cast<std::int64_t>(static_cast<double>(bytes) /
                                   device_mem_scale);
}

}  // namespace fp::mem
