// Shared worker pool for the whole library.
//
// One process-wide ThreadPool serves every parallel region: GEMM row blocks,
// batched im2col/col2im, bias folds, and per-client local training in the
// federated round loops. The pool size defaults to the hardware concurrency
// and can be overridden with the FP_NUM_THREADS environment variable (or
// set_num_threads() from code, e.g. in tests).
//
// Determinism contract: parallel_for only partitions *independent* work.
// Every output element must be produced by exactly one chunk with a fixed
// internal iteration order, so results are bit-identical for any thread
// count. Reductions that would depend on the partition (e.g. summing partial
// results chunk-by-chunk) are not expressible through this API on purpose.
//
// Nested parallel regions execute inline on the calling worker: a client
// training task that reaches a GEMM runs that GEMM serially on its own
// thread instead of deadlocking or oversubscribing the pool.
//
// Exceptions: a task that throws, on any thread, is caught by the pool.
// Indices not yet started are then skipped, the region waits for every
// started task to finish, and the exception of the lowest failed index is
// rethrown to the caller of parallel_for / parallel_tasks. The caller's
// thread leaves the region as it entered it.
#pragma once

#include <cstdint>
#include <functional>

namespace fp::core {

/// Number of threads the global pool uses (>= 1, includes the caller).
int num_threads();

/// Resizes the global pool. Intended for startup / tests; not thread-safe
/// against concurrently running parallel regions.
void set_num_threads(int n);

/// True when the current thread is a pool worker executing a task. Used to
/// run nested parallel regions inline.
bool in_parallel_region();

/// Calls body(chunk_begin, chunk_end) over a partition of [begin, end).
/// Runs inline when the range is small (<= grain), the pool has one thread,
/// or the caller is already inside a parallel region.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// Convenience: one task per index i in [0, n), dynamically scheduled.
/// Same nesting/determinism rules as parallel_for.
void parallel_tasks(std::int64_t n,
                    const std::function<void(std::int64_t)>& task);

}  // namespace fp::core
