// Fixed-size worker pool used by the Lightweight Parallel CPM and the
// parallel maximal-clique enumerator.
//
// The pool is deliberately simple: a mutex-protected FIFO of type-erased
// jobs, with wait_idle() as the only synchronisation primitive callers need.
// Determinism of results is achieved by the *callers* (each parallel stage
// writes to pre-allocated per-task slots and merges in task order), never by
// relying on scheduling order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace kcc {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (0 means std::thread::hardware_concurrency,
  /// floored at 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// The worker count a pool built with `num_threads` starts (never 0).
  static std::size_t resolve_threads(std::size_t num_threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a job. Jobs must not throw; exceptions escaping a job
  /// terminate the process (matching the noexcept worker loop).
  void submit(std::function<void()> job);

  /// Blocks until the queue is empty and all workers are idle.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

/// Tracks a subset of jobs submitted to a pool so a caller can wait for
/// *its* jobs only. ThreadPool::wait_idle() drains the whole queue, which
/// serialises pipelines that keep more than one batch in flight; a
/// TaskGroup waits for exactly the jobs routed through it
/// (parallel_for_dynamic runs on one).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  /// Waits for outstanding jobs before destruction.
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `job` to the pool and tracks it. Jobs must not throw.
  void run(std::function<void()> job);

  /// Blocks until every job submitted through this group has finished.
  void wait();

  ThreadPool& pool() const { return pool_; }

 private:
  ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable done_;
  std::size_t pending_ = 0;
};

/// Runs fn(i) for i in [0, count) across `pool`, blocking until all
/// iterations complete. Iterations are distributed in contiguous chunks to
/// keep per-job overhead low; `fn` must be safe to call concurrently.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Work-stealing variant for loops with wildly uneven iteration costs (the
/// clique enumerator's vertex subproblems span orders of magnitude): one
/// long-lived job per pool worker self-schedules `grain`-sized ranges off a
/// shared atomic cursor, so a worker that drew cheap ranges immediately
/// claims more instead of idling behind a statically assigned chunk.
/// fn(worker, begin, end) is called with worker in [0, thread_count()) —
/// distinct concurrent calls always see distinct worker ids, so `worker`
/// can index per-worker scratch. Blocks until all iterations complete.
void parallel_for_dynamic(
    ThreadPool& pool, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t worker, std::size_t begin,
                             std::size_t end)>& fn);

}  // namespace kcc
