// Memory-plane configuration shared by the federated engine and the task
// factories (DESIGN.md §6).
//
// A Budget is what one dispatched client trains under: the bytes its device
// makes available this round (already mapped onto the trainable model's
// scale). MemConfig is the experiment-level knob set carried by FlConfig —
// everything defaults off so historical outputs stay bit-identical.
#pragma once

#include <cstdint>

namespace fp::mem {

/// Per-client training budget. 0 = unlimited (measure only).
struct Budget {
  std::int64_t avail_mem_bytes = 0;
};

struct MemConfig {
  /// Bind a tracking arena around every train_client call and record the
  /// measured peak into Upload/RoundStats (no behavioural change).
  bool measure = false;
  /// Additionally derive a per-client Budget from its device's available
  /// memory (times device_mem_scale) and report budget violations.
  bool enforce_budget = false;
  /// Allow clients whose planned peak exceeds their budget to train with
  /// activation checkpointing (drop-and-recompute) instead of swapping.
  bool checkpointing = false;
  /// Fixed budget for every client (bytes, trainable-model scale). Overrides
  /// the device-derived budget when > 0 (`bench_paper mem` sweeps).
  std::int64_t budget_override_bytes = 0;
  /// Maps device availability (paper-scale GB) onto the trainable model's
  /// byte scale, mirroring the per-method device_mem_scale (DESIGN.md §1).
  double device_mem_scale = 1.0;

  bool active() const { return measure || enforce_budget; }
};

}  // namespace fp::mem
