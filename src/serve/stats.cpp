#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>

namespace fp::serve {

namespace {
constexpr double kLoSeconds = 1e-6;
// 10^(1/16): the per-bucket ratio of a 16-buckets-per-decade log grid.
const double kRatio = std::pow(10.0, 1.0 / LatencyHist::kBucketsPerDecade);
}  // namespace

void LatencyHist::record(double seconds) {
  if (!(seconds > 0.0)) seconds = kLoSeconds;
  int idx = static_cast<int>(
      std::floor(std::log10(seconds / kLoSeconds) * kBucketsPerDecade));
  if (idx < 0) idx = 0;
  if (idx >= kBuckets) idx = kBuckets - 1;
  buckets_[static_cast<std::size_t>(idx)].fetch_add(1,
                                                    std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  total_us_.fetch_add(static_cast<std::int64_t>(seconds * 1e6),
                      std::memory_order_relaxed);
}

double LatencyHist::total_s() const {
  return static_cast<double>(total_us_.load(std::memory_order_relaxed)) * 1e-6;
}

double LatencyHist::quantile(double q) const {
  const std::int64_t n = count();
  if (n <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample (1-based, ceil), found by a prefix-sum scan.
  const std::int64_t rank =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(q * n)));
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    if (seen >= rank) {
      const double lo = kLoSeconds * std::pow(kRatio, i);
      return lo * std::sqrt(kRatio);  // geometric bucket midpoint
    }
  }
  return kLoSeconds * std::pow(kRatio, kBuckets);
}

}  // namespace fp::serve
