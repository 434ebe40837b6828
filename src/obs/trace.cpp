#include "obs/trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/metrics.h"

namespace kcc::obs {

// Per-thread span storage. Only the owning thread appends; the exporter and
// clear() take the mutex, and the owner takes it per append. The mutex is
// per-thread and almost never contended, so an append is cheap — and it makes
// the whole structure clean under TSan.
struct Tracer::ThreadBuffer {
  std::mutex mutex;
  std::vector<SpanEvent> events;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;
};

struct Tracer::Impl {
  std::mutex registry_mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  /// Buffers whose thread has exited, events kept, for the next thread
  /// that records: a loop that starts fresh threads on every call (see
  /// parallel_for_dynamic) leaves as many buffers as it ran at once.
  std::vector<ThreadBuffer*> idle;
  std::uint32_t next_tid = 1;
};

Tracer& Tracer::instance() {
  // Leaked so worker threads exiting after main() can still reach it.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer() : impl_(new Impl()) {
  const char* env = std::getenv("KCC_TRACE");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) {
    enabled_.store(true, std::memory_order_relaxed);
  }
}

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>(epoch_.seconds() * 1e6);
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // A thread's lease on a buffer ends with the thread, which hands the
  // buffer back to the idle list. Its tid then names a trace track that
  // several threads, one after another, recorded on.
  struct Lease {
    Impl* impl = nullptr;
    ThreadBuffer* buffer = nullptr;
    Lease() = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (buffer == nullptr) return;
      std::lock_guard lock(impl->registry_mutex);
      impl->idle.push_back(buffer);
    }
  };
  thread_local Lease lease;
  if (lease.buffer == nullptr) {
    std::lock_guard lock(impl_->registry_mutex);
    lease.impl = impl_;
    if (!impl_->idle.empty()) {
      lease.buffer = impl_->idle.back();
      impl_->idle.pop_back();
    } else {
      auto owned = std::make_unique<ThreadBuffer>();
      owned->tid = impl_->next_tid++;
      lease.buffer = owned.get();
      impl_->buffers.push_back(std::move(owned));
    }
  }
  return *lease.buffer;
}

void Tracer::record(const char* name, std::uint64_t start_us,
                    std::uint64_t dur_us) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard lock(buf.mutex);
  if (buf.events.size() >= kMaxEventsPerThread) {
    ++buf.dropped;
    // Surfaced as an exported counter (and a shutdown warning in
    // obs::finish) instead of silently truncating the Chrome trace.
    static Counter& dropped_total =
        metrics().counter("trace_dropped_spans_total");
    dropped_total.inc();
    return;
  }
  SpanEvent e;
  std::snprintf(e.name, SpanEvent::kMaxName, "%s", name);
  e.start_us = start_us;
  e.dur_us = dur_us;
  buf.events.push_back(e);
}

std::size_t Tracer::event_count() const {
  std::lock_guard registry_lock(impl_->registry_mutex);
  std::size_t total = 0;
  for (const auto& buf : impl_->buffers) {
    std::lock_guard lock(buf->mutex);
    total += buf->events.size();
  }
  return total;
}

std::size_t Tracer::dropped_count() const {
  std::lock_guard registry_lock(impl_->registry_mutex);
  std::size_t total = 0;
  for (const auto& buf : impl_->buffers) {
    std::lock_guard lock(buf->mutex);
    total += buf->dropped;
  }
  return total;
}

void Tracer::clear() {
  std::lock_guard registry_lock(impl_->registry_mutex);
  for (const auto& buf : impl_->buffers) {
    std::lock_guard lock(buf->mutex);
    buf->events.clear();
    buf->dropped = 0;
  }
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::lock_guard registry_lock(impl_->registry_mutex);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::uint64_t dropped = 0;
  for (const auto& buf : impl_->buffers) {
    std::lock_guard lock(buf->mutex);
    dropped += buf->dropped;
    for (const SpanEvent& e : buf->events) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"";
      // Span names come from instrumentation sites (identifiers, "k=7"),
      // so escaping only needs to keep malicious/accidental quotes safe.
      for (const char* c = e.name; *c != '\0'; ++c) {
        if (*c == '"' || *c == '\\') out << '\\';
        out << *c;
      }
      out << "\",\"cat\":\"kcc\",\"ph\":\"X\",\"pid\":1,\"tid\":" << buf->tid
          << ",\"ts\":" << e.start_us << ",\"dur\":" << e.dur_us << "}";
    }
  }
  out << "]";
  if (dropped > 0) {
    out << ",\"kcc_dropped_spans\":" << dropped;
  }
  out << "}";
}

ScopedSpan::ScopedSpan(const char* name) { begin(name); }

ScopedSpan::ScopedSpan(const std::string& name) { begin(name.c_str()); }

void ScopedSpan::begin(const char* name) {
  Tracer& tracer = Tracer::instance();
  active_ = tracer.enabled();
  if (!active_) return;
  std::snprintf(name_, SpanEvent::kMaxName, "%s", name);
  start_us_ = tracer.now_us();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& tracer = Tracer::instance();
  const std::uint64_t end_us = tracer.now_us();
  tracer.record(name_, start_us_,
                end_us > start_us_ ? end_us - start_us_ : 0);
}

}  // namespace kcc::obs
