#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace fp::core {

namespace {

thread_local bool tls_in_region = false;

/// Marks the current thread as inside a parallel region for its lifetime and
/// restores the previous mark on exit, exceptions included.
class RegionScope {
 public:
  RegionScope() : saved_(tls_in_region) { tls_in_region = true; }
  ~RegionScope() { tls_in_region = saved_; }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  bool saved_;
};

class ThreadPool {
 public:
  explicit ThreadPool(int threads) {
    const int extra = std::max(0, threads - 1);  // the caller is thread 0
    workers_.reserve(static_cast<std::size_t>(extra));
    for (int i = 0; i < extra; ++i)
      workers_.emplace_back([this, i] {
        const std::string name = "fp-pool-" + std::to_string(i + 1);
        obs::set_thread_name(name.c_str());
        worker_loop();
      });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_job_.notify_all();
    for (auto& w : workers_) w.join();
  }

  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs task(i) for every i in [0, n); blocks until every claimed index
  /// has finished. After a task throws, unstarted indices are skipped, and
  /// the lowest-index exception is rethrown here.
  void run(std::int64_t n, const std::function<void(std::int64_t)>& task) {
    if (n <= 0) return;
    if (workers_.empty() || n == 1 || tls_in_region) {
      const RegionScope region;
      for (std::int64_t i = 0; i < n; ++i) task(i);
      return;
    }
    // Each run owns its Job: a straggler from a previous job drains from its
    // own (shared_ptr-kept) counters and can never consume indices or
    // completions of a newer job.
    auto job = std::make_shared<Job>();
    job->n = n;
    job->fn = &task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      ++generation_;
    }
    cv_job_.notify_all();
    drain(*job);  // the caller is a worker too
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [&] { return job->completed.load() == n; });
      if (job_ == job) job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  struct Job {
    std::int64_t n = 0;
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> completed{0};
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::int64_t error_index = 0;  ///< index of `error`, under error_mu
    std::exception_ptr error;
  };

  /// Pulls indices until the job is exhausted. `fn` stays valid for every
  /// claimed index i < n because run() cannot return before all of them
  /// completed. A throwing task is recorded, never propagated: on a pool
  /// worker it would end the process.
  void drain(Job& job) {
    const RegionScope region;
    for (;;) {
      const std::int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) break;
      if (!job.failed.load(std::memory_order_relaxed)) {
        try {
          (*job.fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(job.error_mu);
          if (!job.error || i < job.error_index) {
            job.error = std::current_exception();
            job.error_index = i;
          }
          job.failed.store(true, std::memory_order_relaxed);
        }
      }
      if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n) {
        std::lock_guard<std::mutex> lock(mu_);
        cv_done_.notify_all();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_job_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (job) drain(*job);
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_job_, cv_done_;
  std::uint64_t generation_ = 0;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
};

int default_num_threads() {
  if (const char* env = std::getenv("FP_NUM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(std::min<long>(v, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 256u));
}

std::mutex pool_mu;
std::unique_ptr<ThreadPool> pool_instance;

ThreadPool& pool() {
  std::lock_guard<std::mutex> lock(pool_mu);
  if (!pool_instance)
    pool_instance = std::make_unique<ThreadPool>(default_num_threads());
  return *pool_instance;
}

}  // namespace

int num_threads() { return pool().size(); }

void set_num_threads(int n) {
  n = std::max(1, n);
  std::lock_guard<std::mutex> lock(pool_mu);
  pool_instance = std::make_unique<ThreadPool>(n);
}

bool in_parallel_region() { return tls_in_region; }

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (begin >= end) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t span = end - begin;
  ThreadPool& p = pool();
  if (span <= grain || p.size() == 1 || tls_in_region) {
    const RegionScope region;
    body(begin, end);
    return;
  }
  // Chunk count balances load (a few chunks per thread) without shrinking
  // below the grain. Chunk boundaries are a pure function of (span, grain,
  // chunk count), so the partition is reproducible; each output element is
  // computed entirely within one chunk, so results do not depend on which
  // thread runs which chunk.
  const std::int64_t max_chunks = (span + grain - 1) / grain;
  const std::int64_t chunks =
      std::min<std::int64_t>(max_chunks, static_cast<std::int64_t>(p.size()) * 4);
  const std::int64_t chunk_span = (span + chunks - 1) / chunks;
  p.run(chunks, [&](std::int64_t c) {
    const std::int64_t b = begin + c * chunk_span;
    const std::int64_t e = std::min(end, b + chunk_span);
    if (b < e) body(b, e);
  });
}

void parallel_tasks(std::int64_t n,
                    const std::function<void(std::int64_t)>& task) {
  pool().run(n, task);
}

}  // namespace fp::core
