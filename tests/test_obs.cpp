// Observability layer: metrics registry under contention, span tracing and
// Chrome-trace export, log-level filtering, Timer::lap, and the pipeline
// smoke check that instrumentation actually fires end to end.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/obs.h"
#include "synth/params.h"

namespace kcc {
namespace {

// ----------------------------------------------------------------- JSON
// Minimal recursive-descent JSON parser, just enough to validate the
// exporters' output by parsing it back.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw Error("json: missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw Error("json: trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw Error("json: unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw Error(std::string("json: expected '") + c + "' at " +
                  std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string_value();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        return parse_null();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      const std::string key = parse_string();
      expect(':');
      v.object[key] = parse_value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw Error("json: bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw Error("json: bad \\u escape");
            pos_ += 4;
            c = '?';
            break;
          default:
            c = esc;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) throw Error("json: unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_string_value() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    v.string = parse_string();
    return v;
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw Error("json: bad literal");
    }
    return v;
  }

  JsonValue parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) throw Error("json: bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw Error("json: bad number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

// ---------------------------------------------------------------- Timer
TEST(TimerLap, MeasuresSinceLastLap) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  const double lap1 = t.lap();
  EXPECT_GE(lap1, 0.008);
  // seconds() is cumulative and unaffected by lap().
  EXPECT_GE(t.seconds(), lap1 * 0.9);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double lap2 = t.lap();
  EXPECT_GE(lap2, 0.003);
  EXPECT_LT(lap2, lap1 + 0.2);
  EXPECT_GE(t.seconds(), (lap1 + lap2) * 0.9);
}

TEST(TimerLap, RestartResetsLapOrigin) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(8));
  t.restart();
  const double lap = t.lap();
  EXPECT_LT(lap, 0.008);  // lap origin moved with restart
}

// -------------------------------------------------------------- Metrics
TEST(Metrics, CounterGaugeBasics) {
  obs::Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge g;
  g.set(7);
  g.add(3);
  g.add(-5);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.max_value(), 10);
}

TEST(Metrics, HistogramBucketBoundaries) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.0);  // boundary values land in the bucket they bound
  h.observe(1.5);
  h.observe(100.0);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);  // +Inf overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.0);
}

TEST(Metrics, BoundsHelpers) {
  const auto exp = obs::Histogram::exponential_bounds(1.0, 2.0, 4);
  EXPECT_EQ(exp, (std::vector<double>{1, 2, 4, 8}));
  const auto lin = obs::Histogram::linear_bounds(2.0, 1.0, 3);
  EXPECT_EQ(lin, (std::vector<double>{2, 3, 4}));
  EXPECT_THROW(obs::Histogram::exponential_bounds(0.0, 2.0, 4), Error);
  EXPECT_THROW(obs::Histogram({}), Error);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), Error);
}

TEST(Metrics, RegistryIsIdempotentAndStable) {
  auto& reg = obs::metrics();
  obs::Counter& a = reg.counter("test_registry_counter");
  obs::Counter& b = reg.counter("test_registry_counter");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 = reg.histogram("test_registry_hist", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("test_registry_hist", {9.0});
  EXPECT_EQ(&h1, &h2);  // first registration fixes the bounds
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Metrics, ConcurrentHammering) {
  auto& reg = obs::metrics();
  obs::Counter& counter = reg.counter("test_hammer_counter");
  obs::Gauge& gauge = reg.gauge("test_hammer_gauge");
  obs::Histogram& hist =
      reg.histogram("test_hammer_hist", {0.25, 0.5, 0.75, 1.0});
  counter.reset();
  gauge.reset();
  hist.reset();

  constexpr int kThreads = 4;
  constexpr int kIterations = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        counter.inc();
        gauge.add(1);
        gauge.add(-1);
        hist.observe(static_cast<double>((i + t) % 5) / 4.0);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIterations);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : hist.bucket_counts()) bucket_total += n;
  EXPECT_EQ(bucket_total, hist.count());
}

TEST(Metrics, JsonExportParsesBack) {
  auto& reg = obs::metrics();
  reg.counter("test_export_counter").reset();
  reg.counter("test_export_counter").inc(13);
  reg.histogram("test_export_hist", {1.0, 10.0}).observe(3.0);

  std::ostringstream out;
  reg.write_json(out);
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.at("counters").at("test_export_counter").number, 13.0);
  EXPECT_TRUE(doc.at("gauges").has("process_peak_rss_bytes"));
  const JsonValue& hist = doc.at("histograms").at("test_export_hist");
  EXPECT_GE(hist.at("count").number, 1.0);
  ASSERT_EQ(hist.at("buckets").array.size(), 3u);
  EXPECT_EQ(hist.at("buckets").array.back().at("le").string, "+Inf");
}

TEST(Metrics, PrometheusExportShape) {
  auto& reg = obs::metrics();
  reg.counter("test_prom_counter").reset();
  reg.counter("test_prom_counter").inc(7);
  std::ostringstream out;
  reg.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("\ntest_prom_counter 7\n"), std::string::npos);
  EXPECT_NE(text.find("process_peak_rss_bytes"), std::string::npos);
}

#if defined(__linux__)
TEST(Metrics, PeakRssIsNonzeroOnLinux) {
  EXPECT_GT(obs::peak_rss_bytes(), 0u);
}
#endif

// -------------------------------------------------------------- Logging
TEST(Log, LevelFiltering) {
  const obs::LogLevel saved = obs::log_level();
  std::ostringstream sink;
  obs::set_log_sink(&sink);
  obs::set_log_level(obs::LogLevel::kInfo);

  KCC_LOG(kError) << "error-line";
  KCC_LOG(kInfo) << "info-line " << 42;
  KCC_LOG(kDebug) << "debug-line";

  obs::set_log_level(obs::LogLevel::kOff);
  KCC_LOG(kError) << "suppressed-line";

  obs::set_log_sink(nullptr);
  obs::set_log_level(saved);

  const std::string text = sink.str();
  EXPECT_NE(text.find("error-line"), std::string::npos);
  EXPECT_NE(text.find("info-line 42"), std::string::npos);
  EXPECT_NE(text.find("info "), std::string::npos);  // level tag in prefix
  EXPECT_EQ(text.find("debug-line"), std::string::npos);
  EXPECT_EQ(text.find("suppressed-line"), std::string::npos);
}

TEST(Log, ParseLevelNames) {
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::kOff);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("trace"), obs::LogLevel::kTrace);
  EXPECT_THROW(obs::parse_log_level("loud"), Error);
  EXPECT_STREQ(obs::log_level_name(obs::LogLevel::kDebug), "debug");
}

// -------------------------------------------------------------- Tracing
TEST(Trace, DisabledTracerRecordsNothing) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  {
    KCC_SPAN("should_not_appear");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Trace, NestedSpansProduceWellFormedChromeTrace) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  {
    KCC_SPAN("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      KCC_SPAN("inner_a");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      obs::ScopedSpan dynamic(std::string("inner_k=") + std::to_string(7));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  tracer.set_enabled(false);

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const JsonValue doc = parse_json(out.str());
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 3u);

  std::map<std::string, const JsonValue*> by_name;
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_EQ(e.at("pid").number, 1.0);
    EXPECT_GT(e.at("tid").number, 0.0);
    EXPECT_GE(e.at("dur").number, 0.0);
    by_name[e.at("name").string] = &e;
  }
  ASSERT_TRUE(by_name.count("outer"));
  ASSERT_TRUE(by_name.count("inner_a"));
  ASSERT_TRUE(by_name.count("inner_k=7"));

  // Nesting: children start no earlier than the parent and end within it.
  const JsonValue& outer = *by_name["outer"];
  const double outer_start = outer.at("ts").number;
  const double outer_end = outer_start + outer.at("dur").number;
  for (const char* child : {"inner_a", "inner_k=7"}) {
    const JsonValue& e = *by_name[child];
    EXPECT_GE(e.at("ts").number, outer_start);
    EXPECT_LE(e.at("ts").number + e.at("dur").number, outer_end);
  }
  tracer.clear();
}

TEST(Trace, SpansFromMultipleThreadsGetDistinctTids) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  // The main thread records first, so it holds a buffer while the worker
  // runs: only threads recording one after another share a tid.
  {
    KCC_SPAN("main_span");
  }
  std::thread worker([] { KCC_SPAN("worker_span"); });
  worker.join();
  tracer.set_enabled(false);

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const JsonValue doc = parse_json(out.str());
  std::map<std::string, double> tid_of;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    tid_of[e.at("name").string] = e.at("tid").number;
  }
  ASSERT_TRUE(tid_of.count("worker_span"));
  ASSERT_TRUE(tid_of.count("main_span"));
  EXPECT_NE(tid_of["worker_span"], tid_of["main_span"]);
  tracer.clear();
}

TEST(Trace, FinishedThreadsHandTheirBuffersOn) {
  // parallel_for_dynamic starts fresh threads on every call: 50 calls on a
  // 4-thread budget must leave at most 4 buffers (tids), not one per
  // thread ever started, and lose no span.
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  ThreadPool pool(4);
  constexpr std::size_t kLoops = 50;
  constexpr std::size_t kTasks = 16;
  for (std::size_t loop = 0; loop < kLoops; ++loop) {
    parallel_for_dynamic(pool, kTasks, 1,
                         [](std::size_t, std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             KCC_SPAN("budget_task");
                           }
                         });
  }
  tracer.set_enabled(false);

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const JsonValue doc = parse_json(out.str());
  std::size_t spans = 0;
  std::set<double> tids;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("name").string != "budget_task") continue;
    ++spans;
    tids.insert(e.at("tid").number);
  }
  EXPECT_EQ(spans, kLoops * kTasks);
  EXPECT_LE(tids.size(), 4u);
  EXPECT_EQ(tracer.dropped_count(), 0u);
  tracer.clear();
}

// ----------------------------------------------------- pipeline smoke
TEST(ObsPipelineSmoke, InstrumentationFiresEndToEnd) {
  auto& reg = obs::metrics();
  auto& tracer = obs::Tracer::instance();
  reg.reset_all();
  tracer.clear();
  tracer.set_enabled(true);

  PipelineOptions options;
  options.synth = SynthParams::test_scale();
  const PipelineResult result = run_pipeline(options);
  tracer.set_enabled(false);
  ASSERT_GT(result.cpm.cliques.size(), 0u);

  // Counters fired.
  EXPECT_GT(reg.counter("cliques_enumerated_total").value(), 0u);
  EXPECT_GT(reg.counter("bk_subproblems_total").value(), 0u);
  EXPECT_GT(reg.counter("cpm_join_ops_total").value(), 0u);
  EXPECT_GT(reg.counter("cpm_overlap_pairs_total").value(), 0u);
  EXPECT_GT(reg.counter("cpm_communities_total").value(), 0u);
  EXPECT_GT(reg.counter("thread_pool_tasks_total").value(), 0u);

  // Histograms fired.
  EXPECT_GT(
      reg.histogram("thread_pool_task_seconds", {1.0}).count(), 0u);
  EXPECT_GT(reg.histogram("clique_size_nodes", {1.0}).count(), 0u);

  // Per-k community gauges exist for the whole percolation range.
  for (std::size_t k = result.cpm.min_k; k <= result.cpm.max_k; ++k) {
    EXPECT_EQ(static_cast<std::size_t>(
                  reg.gauge("cpm_communities_k" + std::to_string(k)).value()),
              result.cpm.at(k).count())
        << "k=" << k;
  }

  // One span per pipeline stage, plus per-k percolation spans.
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const JsonValue doc = parse_json(out.str());
  std::map<std::string, int> span_count;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    ++span_count[e.at("name").string];
  }
  for (const char* stage :
       {"pipeline/generate", "pipeline/analyze", "pipeline/cpm",
        "pipeline/metrics", "pipeline/profiles", "pipeline/bands",
        "pipeline/overlaps"}) {
    EXPECT_EQ(span_count[stage], 1) << stage;
  }
  EXPECT_GE(span_count["clique/parallel_enumerate"], 1);
  EXPECT_GE(span_count["cpm/overlap_join"], 1);
  // The pipeline runs the sweep engine: one snapshot span per emitted k >= 3,
  // plus the k=2 component pass and the tree build.
  for (const char* stage :
       {"cpm_engine/sweep", "sweep_cpm/clique_overlaps", "sweep_cpm/sweep",
        "sweep_cpm/percolate_k2", "sweep_cpm/tree"}) {
    EXPECT_EQ(span_count[stage], 1) << stage;
  }
  for (std::size_t k = 3; k <= result.cpm.max_k; ++k) {
    EXPECT_EQ(span_count["sweep_cpm/emit_k=" + std::to_string(k)], 1)
        << "k=" << k;
  }
  tracer.clear();
}

// ------------------------------------------------------------ CLI flags
TEST(CliFlags, UnknownFlagIsAnError) {
  const char* argv[] = {"prog", "--thread=8"};
  EXPECT_THROW(CliArgs(2, argv, {"threads"}), Error);
  // An empty known list still accepts anything (opt-in behaviour).
  const CliArgs open(2, argv, {});
  EXPECT_EQ(open.get_int("thread", 0), 8);
}

}  // namespace
}  // namespace kcc
