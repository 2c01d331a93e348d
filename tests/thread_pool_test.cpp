// ThreadPool semantics, including the re-entrancy regression from the
// serving work: run_slots invoked FROM a pool worker used to deadlock
// (the nested call queued on job_mu while the outer job waited for that
// very worker). The fix detects the case with a thread-local flag and
// runs the nested slots inline on the caller, so these tests terminate
// instead of hanging.
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace support = bernoulli::support;

TEST(ThreadPoolTest, RunsEverySlotExactlyOnce) {
  support::ThreadPool pool(3);
  constexpr int kSlots = 17;
  std::vector<std::atomic<int>> hits(kSlots);
  pool.run_slots(kSlots, [&](int slot) { hits[slot].fetch_add(1); });
  for (int i = 0; i < kSlots; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, OnPoolThreadFlagTracksWorkers) {
  support::ThreadPool pool(2);
  EXPECT_FALSE(support::ThreadPool::on_pool_thread());
  std::atomic<int> inside{0};
  pool.run_slots(4, [&](int) {
    if (support::ThreadPool::on_pool_thread()) inside.fetch_add(1);
  });
  EXPECT_EQ(inside.load(), 4);
  EXPECT_FALSE(support::ThreadPool::on_pool_thread());
}

// Regression (PR 10): before the inline fallback this test hung forever —
// slot 0's nested run_slots blocked on the pool's job mutex, which the
// outer job holds until slot 0 returns.
TEST(ThreadPoolTest, NestedRunSlotsFromWorkerRunsInline) {
  support::ThreadPool& pool = support::shared_pool(2);
  std::atomic<int> inner_hits{0};
  std::atomic<int> outer_hits{0};
  pool.run_slots(2, [&](int slot) {
    outer_hits.fetch_add(1);
    if (slot == 0) {
      std::set<std::thread::id> inner_threads;
      const std::thread::id self = std::this_thread::get_id();
      pool.run_slots(3, [&](int) {
        inner_hits.fetch_add(1);
        inner_threads.insert(std::this_thread::get_id());
      });
      // Inline degradation: every nested slot ran on the calling worker.
      EXPECT_EQ(inner_threads.size(), 1u);
      EXPECT_EQ(*inner_threads.begin(), self);
    }
  });
  EXPECT_EQ(outer_hits.load(), 2);
  EXPECT_EQ(inner_hits.load(), 3);
}

// Deeper nesting (a parallel engine run inside a server request inside a
// bench client slot) must also terminate.
TEST(ThreadPoolTest, DoublyNestedRunSlotsTerminates) {
  support::ThreadPool& pool = support::shared_pool(2);
  std::atomic<int> leaf_hits{0};
  pool.run_slots(2, [&](int) {
    pool.run_slots(2, [&](int) {
      pool.run_slots(2, [&](int) { leaf_hits.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaf_hits.load(), 2 * 2 * 2);
}

TEST(ThreadPoolTest, NestedExceptionPropagatesThroughInlinePath) {
  support::ThreadPool& pool = support::shared_pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_slots(2,
                     [&](int slot) {
                       if (slot == 0) {
                         pool.run_slots(2, [&](int inner) {
                           ran.fetch_add(1);
                           if (inner == 1) throw std::runtime_error("boom");
                         });
                       } else {
                         ran.fetch_add(1);
                       }
                     }),
      std::runtime_error);
  // The inline path still runs the remaining slots before rethrowing.
  EXPECT_EQ(ran.load(), 3);
}

// The caller pulls slots alongside the workers: with ONE worker, two
// slots that each wait for the other to start can only both start when
// the calling thread runs one of them. A nested run_slots from the
// caller's slot must then degrade inline like a worker's, not deadlock on
// the job the caller itself holds.
TEST(ThreadPoolTest, CallerRunsSlotsAlongsideWorkers) {
  support::ThreadPool pool(1);
  std::atomic<int> started{0};
  std::atomic<int> inner_hits{0};
  std::set<std::thread::id> threads;
  std::mutex mu;
  pool.run_slots(2, [&](int) {
    started.fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
    {
      std::lock_guard<std::mutex> lk(mu);
      threads.insert(std::this_thread::get_id());
    }
    pool.run_slots(2, [&](int) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(started.load(), 2);
  EXPECT_EQ(threads.size(), 2u);
  EXPECT_TRUE(threads.count(std::this_thread::get_id()));
  EXPECT_EQ(inner_hits.load(), 4);
  EXPECT_FALSE(support::ThreadPool::on_pool_thread());
}

