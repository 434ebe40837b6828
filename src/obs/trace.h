// Span-based tracing with Chrome trace_event JSON export.
//
// Spans are RAII: construct a ScopedSpan (or use KCC_SPAN("name")) at the top
// of a region; its duration is recorded when the scope exits. Each thread
// appends completed spans to its own bounded buffer, so tracing never blocks
// one thread on another; a global registry owns the buffers and merges them
// at export time into a single Chrome `trace_event` JSON document that loads
// directly in chrome://tracing or https://ui.perfetto.dev. A thread that
// exits hands its buffer, events kept, to the next thread that records, so
// the buffers (and the trace's tids) number the threads that ran at once,
// not every thread ever started.
//
// Tracing is disabled by default. When disabled, a ScopedSpan costs one
// relaxed atomic load; no clock is read and nothing is recorded. Enable with
// Tracer::instance().set_enabled(true) (the CLI/bench `--trace-out=` flag
// does this) or the KCC_TRACE=1 environment variable.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/timer.h"

namespace kcc::obs {

/// One completed span. The name is stored inline so buffers never allocate
/// after construction; long names are truncated.
struct SpanEvent {
  static constexpr std::size_t kMaxName = 48;
  char name[kMaxName];
  std::uint64_t start_us;  // microseconds since tracer epoch
  std::uint64_t dur_us;
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Microseconds since the tracer epoch (process-lifetime monotonic clock).
  std::uint64_t now_us() const;

  /// Appends a completed span to the calling thread's buffer. Buffers are
  /// bounded (kMaxEventsPerThread); overflowing spans are counted and
  /// dropped, and the drop count is reported in the export.
  void record(const char* name, std::uint64_t start_us, std::uint64_t dur_us);

  /// Total spans currently buffered across all threads.
  std::size_t event_count() const;
  std::size_t dropped_count() const;

  /// Discards all buffered spans (tests / between bench repetitions). Only
  /// call while no instrumented work is in flight.
  void clear();

  /// Writes the Chrome trace_event JSON document ({"traceEvents": [...]}).
  void write_chrome_trace(std::ostream& out) const;

  static constexpr std::size_t kMaxEventsPerThread = 1 << 16;

 private:
  Tracer();
  struct ThreadBuffer;

  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  Timer epoch_;

  struct Impl;
  Impl* impl_;  // leaked singleton state; outlives detached worker threads
};

/// RAII span. Records [construction, destruction) on the calling thread when
/// tracing is enabled at construction time.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  explicit ScopedSpan(const std::string& name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* name);

  bool active_;
  std::uint64_t start_us_ = 0;
  char name_[SpanEvent::kMaxName];
};

}  // namespace kcc::obs

#define KCC_SPAN_CONCAT2(a, b) a##b
#define KCC_SPAN_CONCAT(a, b) KCC_SPAN_CONCAT2(a, b)
/// Traces the rest of the enclosing scope as one span.
#define KCC_SPAN(name) \
  ::kcc::obs::ScopedSpan KCC_SPAN_CONCAT(kcc_span_, __LINE__)(name)
