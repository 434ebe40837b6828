#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace kcc {
namespace {

// Calls fn(i) for every index, whatever the range shape.
void for_each_index(ThreadPool& pool, std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t)>& fn) {
  parallel_for_dynamic(pool, count, grain,
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) fn(i);
                       });
}

TEST(ParallelForDynamic, CoversEveryIndexExactlyOnce) {
  for (const std::size_t grain : {1u, 3u}) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    for_each_index(pool, hits.size(), grain,
                   [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ParallelForDynamic, ZeroCount) {
  ThreadPool pool(2);
  std::atomic<bool> called{false};
  parallel_for_dynamic(pool, 0, 1,
                       [&](std::size_t, std::size_t, std::size_t) {
                         called = true;
                       });
  EXPECT_FALSE(called.load());
}

TEST(ParallelForDynamic, SingleElement) {
  ThreadPool pool(8);
  std::atomic<int> value{0};
  for_each_index(pool, 1, 1, [&](std::size_t i) { value = int(i) + 41; });
  EXPECT_EQ(value.load(), 41);
}

TEST(ParallelForDynamic, ResultMatchesSequential) {
  ThreadPool pool(6);
  std::vector<long> out(1000);
  for_each_index(pool, out.size(), 7,
                 [&](std::size_t i) { out[i] = long(i) * long(i); });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], long(i) * long(i));
  }
}

TEST(ParallelForDynamic, ConcurrentCallsSeeDistinctWorkerIds) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> busy(pool.thread_count());
  std::atomic<bool> shared_id{false};
  std::atomic<bool> out_of_range{false};
  parallel_for_dynamic(
      pool, 64, 1, [&](std::size_t worker, std::size_t, std::size_t) {
        if (worker >= pool.thread_count()) {
          out_of_range = true;
          return;
        }
        if (busy[worker].fetch_add(1) != 0) shared_id = true;
        std::this_thread::yield();
        busy[worker].fetch_sub(1);
      });
  EXPECT_FALSE(out_of_range.load());
  EXPECT_FALSE(shared_id.load());
}

TEST(ParallelForDynamic, OneThreadRunsOnTheCallingThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;  // unsynchronised on purpose: TSan flags a 2nd thread
  bool elsewhere = false;
  parallel_for_dynamic(pool, 10, 1,
                       [&](std::size_t worker, std::size_t, std::size_t) {
                         ++calls;
                         if (worker != 0 ||
                             std::this_thread::get_id() != caller) {
                           elsewhere = true;
                         }
                       });
  EXPECT_EQ(calls, 10u);
  EXPECT_FALSE(elsewhere);
}

TEST(ParallelForDynamic, NeverMoreThreadsThanRanges) {
  ThreadPool pool(8);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::set<std::size_t> workers;
  // 7 items in grain-3 ranges: 3 ranges for an 8-thread budget.
  parallel_for_dynamic(pool, 7, 3,
                       [&](std::size_t worker, std::size_t, std::size_t) {
                         std::lock_guard lock(mutex);
                         threads.insert(std::this_thread::get_id());
                         workers.insert(worker);
                       });
  EXPECT_LE(threads.size(), 3u);
  EXPECT_LE(workers.size(), 3u);
  for (std::size_t w : workers) EXPECT_LT(w, 3u);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(ThreadPool(3).thread_count(), 3u);
}

}  // namespace
}  // namespace kcc
