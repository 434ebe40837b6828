#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#if defined(__linux__) || defined(__APPLE__)
#include <time.h>
#endif

#include "common/error.h"

namespace kcc::obs {
namespace {

// The gauge both exporters synthesise from peak_rss_bytes() at write time.
constexpr const char* kPeakRssGauge = "process_peak_rss_bytes";

// Doubles formatted compactly but round-trippably enough for tooling.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  require(!bounds_.empty(), "Histogram: needs at least one bucket bound");
  require(std::is_sorted(bounds_.begin(), bounds_.end()),
          "Histogram: bucket bounds must be ascending");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe_n(double value, std::uint64_t n) {
  if (n == 0) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // bounds_.size() = +Inf
  buckets_[bucket].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(value * static_cast<double>(n), std::memory_order_relaxed);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // bounds_.size() = +Inf
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "Histogram::quantile: q must be in [0, 1]");
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Rank of the target observation (1-based, ceil'd so q=1 hits the last).
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= target) {
      if (i == bounds_.size()) return bounds_.back();  // +Inf clamps
      const double upper = bounds_[i];
      const double lower =
          i == 0 ? std::min(0.0, upper) : bounds_[i - 1];
      const double into_bucket =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      return lower + (upper - lower) * into_bucket;
    }
    cumulative = next;
  }
  return bounds_.back();
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  require(start > 0 && factor > 1 && count > 0,
          "Histogram::exponential_bounds: invalid parameters");
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::linear_bounds(double start, double step,
                                             std::size_t count) {
  require(step > 0 && count > 0,
          "Histogram::linear_bounds: invalid parameters");
  std::vector<double> bounds;
  bounds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(start + step * static_cast<double>(i));
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& metrics() { return MetricsRegistry::instance(); }

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

void MetricsRegistry::reset_all() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) {
    out << "# TYPE " << name << " counter\n";
    out << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << "# TYPE " << name << " gauge\n";
    out << name << " " << g->value() << "\n";
    out << name << "_max " << g->max_value() << "\n";
  }
  out << "# TYPE " << kPeakRssGauge << " gauge\n";
  out << kPeakRssGauge << " " << peak_rss_bytes() << "\n";
  for (const auto& [name, h] : histograms_) {
    out << "# TYPE " << name << " histogram\n";
    const auto counts = h->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      cumulative += counts[i];
      out << name << "_bucket{le=\"" << format_double(h->bounds()[i]) << "\"} "
          << cumulative << "\n";
    }
    cumulative += counts.back();
    out << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    out << name << "_sum " << format_double(h->sum()) << "\n";
    out << name << "_count " << h->count() << "\n";
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, name);
    out << ":" << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, name);
    out << ":{\"value\":" << g->value() << ",\"max\":" << g->max_value()
        << "}";
  }
  if (!first) out << ",";
  write_json_string(out, kPeakRssGauge);
  out << ":{\"value\":" << peak_rss_bytes()
      << ",\"max\":" << peak_rss_bytes() << "}";
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, name);
    out << ":{\"count\":" << h->count()
        << ",\"sum\":" << format_double(h->sum())
        << ",\"p50\":" << format_double(h->quantile(0.50))
        << ",\"p90\":" << format_double(h->quantile(0.90))
        << ",\"p99\":" << format_double(h->quantile(0.99))
        << ",\"buckets\":[";
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"le\":";
      if (i < h->bounds().size()) {
        out << format_double(h->bounds()[i]);
      } else {
        out << "\"+Inf\"";
      }
      out << ",\"count\":" << counts[i] << "}";
    }
    out << "]}";
  }
  out << "}}";
}

namespace {

// "VmHWM:" / "VmRSS:" lines of /proc/self/status, in bytes.
std::uint64_t proc_status_bytes([[maybe_unused]] const char* field) {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      std::uint64_t kib = 0;
      fields >> kib;
      return kib * 1024;
    }
  }
#endif
  return 0;
}

}  // namespace

std::uint64_t peak_rss_bytes() { return proc_status_bytes("VmHWM"); }

std::uint64_t current_rss_bytes() { return proc_status_bytes("VmRSS"); }

double process_cpu_seconds() {
#if defined(__linux__) || defined(__APPLE__)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
#endif
  return 0.0;
}

}  // namespace kcc::obs
