#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {
namespace {

// Pool instrumentation, registered once and shared by every pool instance.
// Hot-path cost per task: a few relaxed atomic ops plus two steady_clock
// reads — negligible against the chunked jobs parallel_for submits.
struct PoolMetrics {
  obs::Counter& tasks = obs::metrics().counter("thread_pool_tasks_total");
  obs::Counter& idle_micros =
      obs::metrics().counter("thread_pool_idle_micros_total");
  obs::Gauge& queue_depth = obs::metrics().gauge("thread_pool_queue_depth");
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

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = resolve_threads(num_threads);
  pool_metrics();  // register instruments before workers can race to use them
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::unique_lock lock(mutex_);
    queue_.push(std::move(job));
  }
  pool_metrics().queue_depth.add(1);
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  PoolMetrics& m = pool_metrics();
  for (;;) {
    std::function<void()> job;
    Timer idle_timer;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with drained queue
      job = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    m.queue_depth.add(-1);
    m.idle_micros.inc(static_cast<std::uint64_t>(idle_timer.seconds() * 1e6));
    {
      obs::ScopedSpan span("pool_task");
      Timer task_timer;
      job();
      m.task_seconds.observe(task_timer.seconds());
    }
    m.tasks.inc();
    {
      std::unique_lock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void TaskGroup::run(std::function<void()> job) {
  {
    std::lock_guard lock(mutex_);
    ++pending_;
  }
  pool_.submit([this, job = std::move(job)] {
    job();
    std::lock_guard lock(mutex_);
    if (--pending_ == 0) done_.notify_all();
  });
}

void TaskGroup::wait() {
  std::unique_lock lock(mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t chunks = std::min(count, pool.thread_count() * 4);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(count, begin + chunk_size);
    if (begin >= end) break;
    pool.submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }
  pool.wait_idle();
}

void parallel_for_dynamic(
    ThreadPool& pool, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t worker, std::size_t begin,
                             std::size_t end)>& fn) {
  if (count == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t ranges = (count + grain - 1) / grain;
  const std::size_t jobs =
      std::max<std::size_t>(1, std::min(pool.thread_count(), ranges));
  std::atomic<std::size_t> cursor{0};
  TaskGroup group(pool);
  for (std::size_t worker = 0; worker < jobs; ++worker) {
    group.run([&fn, &cursor, count, grain, worker] {
      for (;;) {
        const std::size_t begin =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= count) return;
        fn(worker, begin, std::min(count, begin + grain));
      }
    });
  }
  group.wait();
}

}  // namespace kcc
