#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {
namespace {

// Loop instrumentation, registered once and shared by every loop. One task
// is one worker's share of one parallel loop, the calling thread included.
struct PoolMetrics {
  obs::Counter& tasks = obs::metrics().counter("thread_pool_tasks_total");
  obs::Histogram& task_seconds = obs::metrics().histogram(
      "thread_pool_task_seconds",
      obs::Histogram::exponential_bounds(1e-5, 4.0, 12));
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

std::size_t ThreadPool::resolve_threads(std::size_t num_threads) {
  if (num_threads != 0) return num_threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void parallel_for_dynamic(
    ThreadPool& pool, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t worker, std::size_t begin,
                             std::size_t end)>& fn) {
  if (count == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t ranges = (count + grain - 1) / grain;
  const std::size_t workers = std::min(pool.thread_count(), ranges);
  PoolMetrics& m = pool_metrics();
  std::atomic<std::size_t> cursor{0};
  // noexcept: an exception escaping fn terminates, on any thread.
  auto work = [&](std::size_t worker) noexcept {
    obs::ScopedSpan span("pool_task");
    Timer task_timer;
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= count) break;
      fn(worker, begin, std::min(count, begin + grain));
    }
    m.task_seconds.observe(task_timer.seconds());
    m.tasks.inc();
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t worker = 1; worker < workers; ++worker) {
    threads.emplace_back(work, worker);
  }
  work(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace kcc
