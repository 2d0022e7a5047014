// The shared worker pool (core/parallel.hpp) when a task throws: the
// exception reaches the caller of the region wherever the task ran, the
// region waits for every started task, and the caller's thread is outside a
// region again afterwards, so its next region still runs chunked.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/parallel.hpp"

namespace fp {
namespace {

using Clock = std::chrono::steady_clock;

/// Spins until `flag` is set or five seconds pass; true when it was set.
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!flag.load()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

class PoolExceptions : public ::testing::Test {
 protected:
  void SetUp() override { core::set_num_threads(4); }
  void TearDown() override { core::set_num_threads(1); }
};

TEST_F(PoolExceptions, WorkerThrowReachesTheCaller) {
  // The caller's task holds until a pool worker has started one, and every
  // worker task throws: the exception must be rethrown by parallel_tasks,
  // not end the process on the worker.
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_started{false};
  bool caller_saw_worker = false;
  try {
    core::parallel_tasks(8, [&](std::int64_t i) {
      if (std::this_thread::get_id() == caller) {
        caller_saw_worker = caller_saw_worker || wait_for(worker_started);
        return;
      }
      worker_started = true;
      throw std::runtime_error("worker task " + std::to_string(i));
    });
    FAIL() << "parallel_tasks returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("worker task ", 0), 0u) << e.what();
  }
  EXPECT_TRUE(caller_saw_worker) << "no pool worker picked up a task";
  EXPECT_FALSE(core::in_parallel_region());

  std::atomic<int> ran{0};
  core::parallel_tasks(8, [&](std::int64_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8) << "the pool stopped serving after the throw";
}

TEST_F(PoolExceptions, CallerThrowWaitsForStartedWorkers) {
  // The caller's task throws once a worker task is running; the region must
  // not return while that worker still runs, and must leave the caller's
  // thread outside any region.
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_started{false};
  std::atomic<int> running{0};
  EXPECT_THROW(core::parallel_tasks(8,
                                    [&](std::int64_t) {
                                      if (std::this_thread::get_id() == caller) {
                                        wait_for(worker_started);
                                        throw std::logic_error("caller task");
                                      }
                                      ++running;
                                      worker_started = true;
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(30));
                                      --running;
                                    }),
               std::logic_error);
  EXPECT_EQ(running.load(), 0) << "parallel_tasks returned mid-task";
  EXPECT_FALSE(core::in_parallel_region());
}

TEST_F(PoolExceptions, RegionAfterAThrowStillRunsChunked) {
  EXPECT_THROW(core::parallel_tasks(
                   4, [](std::int64_t) { throw std::runtime_error("any"); }),
               std::runtime_error);
  EXPECT_THROW(core::parallel_for(0, 64, 1,
                                  [](std::int64_t, std::int64_t) {
                                    throw std::runtime_error("chunk");
                                  }),
               std::runtime_error);
  ASSERT_FALSE(core::in_parallel_region());
  // A caller left marked as inside a region would run this inline, as one
  // body(0, 1000) call.
  std::atomic<int> chunks{0};
  core::parallel_for(0, 1000, 1, [&](std::int64_t, std::int64_t) { ++chunks; });
  EXPECT_GT(chunks.load(), 1);
}

TEST_F(PoolExceptions, NoTaskStartsAfterAFailure) {
  // Index 0 fails at once; tasks claimed after that are skipped, and none
  // runs once the region has returned, so the count stays far below the
  // 1000 sleeping tasks.
  std::atomic<int> ran{0};
  EXPECT_THROW(core::parallel_tasks(1000,
                                    [&](std::int64_t i) {
                                      if (i == 0) throw std::runtime_error("0");
                                      ++ran;
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(1));
                                    }),
               std::runtime_error);
  const int at_return = ran.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ran.load(), at_return) << "tasks ran after the region returned";
  EXPECT_LT(at_return, 100);
}

TEST(PoolExceptionsInline, LowestIndexOfASerialRegionWins) {
  // One thread runs the region inline in index order: the first failure
  // ends it, and the region mark is restored.
  core::set_num_threads(1);
  int ran = 0;
  try {
    core::parallel_tasks(10, [&](std::int64_t i) {
      ++ran;
      if (i >= 3) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "parallel_tasks returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_EQ(ran, 4);
  EXPECT_FALSE(core::in_parallel_region());
}

}  // namespace
}  // namespace fp
