// Serving-plane statistics (DESIGN.md §12): a lock-free log-bucketed latency
// histogram (p50/p95/p99 for /metricsz and the [serve] summary line) and a
// batch-size accumulator for the micro-batcher.
//
// Both are plain atomic counters so handler threads record without locking;
// quantiles are computed on demand by a reader (monitoring endpoint), which
// tolerates the benign raciness of concurrent recording.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "exp/json.hpp"

namespace fp::serve {

/// Log-spaced histogram over [1us, 100s): 16 buckets per decade, 8 decades.
/// Anything above the range clamps into the last bucket.
class LatencyHist {
 public:
  static constexpr int kBucketsPerDecade = 16;
  static constexpr int kDecades = 8;
  static constexpr int kBuckets = kBucketsPerDecade * kDecades;

  void record(double seconds);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double total_s() const;

  /// Quantile in seconds (q in [0,1]); 0 when empty. Returns the geometric
  /// midpoint of the bucket holding the q-th sample.
  double quantile(double q) const;

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> total_us_{0};
};

/// Per-batch size accumulator (mean/max batch size in /metricsz).
class BatchStats {
 public:
  void record(std::int64_t batch_size) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    samples_.fetch_add(batch_size, std::memory_order_relaxed);
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (batch_size > cur && !max_.compare_exchange_weak(
                                   cur, batch_size, std::memory_order_relaxed)) {
    }
  }

  std::int64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  std::int64_t samples() const { return samples_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::int64_t b = batches();
    return b > 0 ? static_cast<double>(samples()) / static_cast<double>(b) : 0.0;
  }

 private:
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> samples_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Round-trippable double spelling (shortest %g that parses back exactly);
/// the one copy lives in exp/json.
using exp::format_double;

}  // namespace fp::serve
