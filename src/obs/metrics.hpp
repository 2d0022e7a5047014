// Metrics registry (DESIGN.md §11): named monotonic counters / gauges and
// the per-phase wall-clock accumulators behind the [obs] summary line.
//
// Counters are always on — an atomic add never changes an experiment's
// output, so there is no off-switch to keep bit-identical (the obs.metrics
// spec key only gates the JSON export). Hot paths hold a `static Counter&`
// so the name lookup happens once per site, not per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fp::obs {

class Counter {
 public:
  void add(std::int64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Gauge semantics: record a high-water mark.
  void set_max(std::int64_t x) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (x > cur &&
           !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  void set(std::int64_t x) { v_.store(x, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// The counter registered under `name` (created on first use; the reference
/// stays valid for the process lifetime).
Counter& counter(const std::string& name);

/// Every registered counter, name-sorted, plus a fresh "process.rss_peak_kb"
/// sample (getrusage ru_maxrss).
std::vector<std::pair<std::string, std::int64_t>> metrics_snapshot();

/// Zeroes every registered counter (tests / run isolation).
void metrics_reset();

/// Writes {"metrics": {name: value, ...}}, one counter per line, through
/// exp::JsonWriter (creating parent directories). False on I/O failure.
bool write_metrics_json(const std::string& path);

// ---- Phase breakdown --------------------------------------------------------
// Non-overlapping top-level phases of a run (sample/train/aggregate/eval are
// disjoint on the engine thread; encode nests inside train and is reported
// separately, accumulated across worker threads). Timers are always on: two
// monotonic clock reads per phase entry, output-neutral by construction.

enum class Phase : int { kSample = 0, kTrain, kEncode, kAggregate, kEval, kCount };

/// RAII phase accumulator. Re-entrant per thread: only the outermost scope
/// of a given phase accumulates, so nested eval-inside-eval never counts
/// twice.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase p);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Phase phase_;
  std::int64_t t0_ = 0;
  bool active_;
};

struct PhaseBreakdown {
  double sample_s = 0.0;
  double train_s = 0.0;
  double encode_s = 0.0;  ///< codec work, nested inside train (not additive)
  double aggregate_s = 0.0;
  double eval_s = 0.0;
};

PhaseBreakdown phase_snapshot();
void phase_reset();

}  // namespace fp::obs
