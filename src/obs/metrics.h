// Process-global metrics registry: counters, gauges, fixed-bucket histograms.
//
// Design goals, in order:
//   1. Hot-path updates are lock-free: a registered Counter/Gauge/Histogram
//      is a stable reference whose mutations are relaxed atomics. Lookup by
//      name takes a mutex, so instrumented code caches the reference once
//      (function-local static) and pays only the atomic op per event.
//   2. Export is consistent enough: exporters read each atomic individually;
//      metrics updated concurrently with an export may land in either side.
//   3. Always on: counter upkeep is cheap enough (~1 relaxed RMW per event on
//      coarse-grained events, batched adds on fine-grained ones) that there
//      is no global enable flag to get wrong. Exporting is what costs I/O,
//      and that only happens when a caller asks for it.
//
// Naming follows Prometheus conventions (snake_case, `_total` suffix for
// monotonic counters, base units in the name). docs/OBSERVABILITY.md has the
// catalog of metrics the library emits.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace kcc::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, community count). Tracks the
/// maximum level ever set so short-lived peaks survive until export.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    update_max(v);
  }
  void add(std::int64_t delta) {
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    update_max(now);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max_value() const {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_max(std::int64_t candidate) {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket (+Inf) catches the rest. Bounds are fixed at
/// registration so observe() is allocation-free and bounded work.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  /// Records `n` observations of `value` with one bucket lookup and three
  /// atomic adds — the batching hook for hot loops that tally locally and
  /// flush once.
  void observe_n(double value, std::uint64_t n);

  /// Upper bounds excluding the implicit +Inf bucket.
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last is +Inf).
  std::vector<std::uint64_t> bucket_counts() const;

  /// Quantile estimate (q in [0, 1]), linearly interpolated within the
  /// fixed buckets (Prometheus histogram_quantile style: the first bucket
  /// interpolates from 0 — or from its lower bound when bounds go
  /// negative — and observations in +Inf clamp to the largest finite
  /// bound). Returns 0 when the histogram is empty. The JSON export emits
  /// p50/p90/p99 through this, so run reports need no downstream bucket
  /// math.
  double quantile(double q) const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

  /// `count` bounds starting at `start`, each `factor` times the previous.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);
  /// `count` bounds: start, start+step, ...
  static std::vector<double> linear_bounds(double start, double step,
                                           std::size_t count);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Name -> instrument map. Registration is idempotent: the first caller
/// fixes the instrument (and, for histograms, its bounds); later calls with
/// the same name return the same instance.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  /// Zeroes every registered instrument (tests and bench reruns). Instruments
  /// stay registered; cached references remain valid.
  void reset_all();

  /// Prometheus text exposition format.
  void write_prometheus(std::ostream& out) const;
  /// Single JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Includes a `process_peak_rss_bytes` gauge sampled at write time.
  void write_json(std::ostream& out) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::instance().
MetricsRegistry& metrics();

/// Peak resident set size of this process in bytes (Linux VmHWM; 0 where
/// unsupported).
std::uint64_t peak_rss_bytes();

/// Current resident set size in bytes (Linux VmRSS; 0 where unsupported).
/// The sweep samples this into the `cpm_sweep_rss_bytes` gauge when its
/// pair store peaks, so the gauge's max tracks the peak footprint of the
/// run itself rather than of the whole process lifetime.
std::uint64_t current_rss_bytes();

/// CPU time this process has used so far, user + system summed over all
/// its threads, in seconds (CLOCK_PROCESS_CPUTIME_ID; 0 where unsupported).
double process_cpu_seconds();

}  // namespace kcc::obs
