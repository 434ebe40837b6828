#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace kcc {
namespace {

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SingleThreadMode) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.wait_idle();
  // One worker: FIFO execution.
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.submit([&] { counter.fetch_add(1); });
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCount) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleElement) {
  ThreadPool pool(8);
  std::atomic<int> value{0};
  parallel_for(pool, 1, [&](std::size_t i) { value = int(i) + 41; });
  EXPECT_EQ(value.load(), 41);
}

TEST(ParallelFor, ResultMatchesSequential) {
  ThreadPool pool(6);
  std::vector<long> out(1000);
  parallel_for(pool, out.size(),
               [&](std::size_t i) { out[i] = long(i) * long(i); });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], long(i) * long(i));
  }
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(TaskGroup, WaitsForItsOwnJobsOnly) {
  ThreadPool pool(4);
  std::atomic<int> mine{0};
  std::atomic<int> theirs{0};
  TaskGroup group(pool);
  for (int i = 0; i < 50; ++i) {
    group.run([&mine] { mine.fetch_add(1); });
    pool.submit([&theirs] { theirs.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(mine.load(), 50);  // all of the group's jobs are done...
  pool.wait_idle();
  EXPECT_EQ(theirs.load(), 50);  // ...regardless of the untracked ones
}

TEST(TaskGroup, TwoGroupsOverlapInFlight) {
  // A double-buffered pipeline: wait on group a while group b still has
  // unscheduled work, then swap.
  ThreadPool pool(2);
  TaskGroup a(pool);
  TaskGroup b(pool);
  std::atomic<int> counter{0};
  for (int round = 0; round < 10; ++round) {
    TaskGroup& current = round % 2 == 0 ? a : b;
    TaskGroup& next = round % 2 == 0 ? b : a;
    for (int i = 0; i < 8; ++i) next.run([&] { counter.fetch_add(1); });
    current.wait();
  }
  a.wait();
  b.wait();
  EXPECT_EQ(counter.load(), 80);
}

TEST(TaskGroup, WaitOnEmptyGroupReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.wait();  // must not hang
  SUCCEED();
}

TEST(TaskGroup, ReusableAfterWait) {
  ThreadPool pool(3);
  TaskGroup group(pool);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) group.run([&] { counter.fetch_add(1); });
    group.wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(TaskGroup, DestructorWaitsForPendingJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 30; ++i) group.run([&] { counter.fetch_add(1); });
  }  // ~TaskGroup must block until every job ran
  EXPECT_EQ(counter.load(), 30);
}

}  // namespace
}  // namespace kcc
