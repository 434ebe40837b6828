// Thread budget for the two parallel axes of the Lightweight Parallel CPM:
// the parallel maximal-clique enumerator and the per-k percolations.
//
// A ThreadPool holds no workers. Every parallel stage in the library is one
// loop that runs to completion before its caller continues, so a resident
// worker set with a job queue would only add synchronisation that no caller
// uses. parallel_for_dynamic instead starts its threads on entry and joins
// them before it returns; the pool just says how many it may use.
// Determinism of results is achieved by the *callers* (each parallel stage
// writes to pre-allocated per-task slots and merges in task order), never by
// relying on scheduling order.
#pragma once

#include <cstddef>
#include <functional>

namespace kcc {

class ThreadPool {
 public:
  /// A budget of `num_threads` threads (0 means
  /// std::thread::hardware_concurrency, floored at 1).
  explicit ThreadPool(std::size_t num_threads = 0)
      : threads_(resolve_threads(num_threads)) {}

  /// The thread count a pool built with `num_threads` allows (never 0).
  static std::size_t resolve_threads(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_; }

 private:
  std::size_t threads_;
};

/// Runs fn over [0, count) in `grain`-sized ranges, for loops with wildly
/// uneven iteration costs (the clique enumerator's vertex subproblems span
/// orders of magnitude): each worker self-schedules ranges off a shared
/// atomic cursor, so a worker that drew cheap ranges immediately claims more
/// instead of idling behind a statically assigned chunk. Starts
/// min(thread_count(), ranges) - 1 threads, runs worker 0 on the calling
/// thread and joins the others before returning; a one-thread pool starts
/// none. fn(worker, begin, end) is called with worker in [0, thread_count())
/// — distinct concurrent calls always see distinct worker ids, so `worker`
/// can index per-worker scratch. `fn` must not throw.
void parallel_for_dynamic(
    ThreadPool& pool, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t worker, std::size_t begin,
                             std::size_t end)>& fn);

}  // namespace kcc
