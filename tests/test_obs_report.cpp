// Run reports: manifest collection, StageScope / RunRecorder capture of
// wall and CPU time, run-report JSON round-tripped through the flat parser,
// histogram quantiles, and the tracer's span-overflow drop counter.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/obs.h"

namespace kcc {
namespace {

// ------------------------------------------------------------ flat parser

TEST(FlatJson, FlattensNestedObjectsAndArrays) {
  const obs::FlatJson doc = obs::parse_json_flat(
      R"({"a":{"b":[1,"x",{"c":2.5}]},"t":true,"f":false,"n":null,)"
      R"("neg":-3e2})");
  EXPECT_DOUBLE_EQ(doc.number("a.b.0"), 1.0);
  EXPECT_EQ(doc.string("a.b.1"), "x");
  EXPECT_DOUBLE_EQ(doc.number("a.b.2.c"), 2.5);
  EXPECT_DOUBLE_EQ(doc.number("t"), 1.0);
  EXPECT_DOUBLE_EQ(doc.number("f"), 0.0);
  EXPECT_FALSE(doc.has_number("n"));
  EXPECT_DOUBLE_EQ(doc.number("neg"), -300.0);
  // Fallbacks for absent paths.
  EXPECT_DOUBLE_EQ(doc.number("missing", 7.0), 7.0);
  EXPECT_EQ(doc.string("missing", "d"), "d");
}

TEST(FlatJson, DecodesStringEscapes) {
  const obs::FlatJson doc =
      obs::parse_json_flat(R"({"s":"a\"b\\c\nd\tA"})");
  EXPECT_EQ(doc.string("s"), "a\"b\\c\nd\tA");
}

TEST(FlatJson, ThrowsOnMalformedInput) {
  EXPECT_THROW(obs::parse_json_flat("{"), Error);
  EXPECT_THROW(obs::parse_json_flat(R"({"a":})"), Error);
  EXPECT_THROW(obs::parse_json_flat(R"({"a":1} trailing)"), Error);
  EXPECT_THROW(obs::parse_json_flat(""), Error);
  EXPECT_THROW(obs::read_json_flat_file("/nonexistent/path.json"), Error);
}

// --------------------------------------------------------------- manifest

TEST(RunManifest, CollectsBuildAndHostFacts) {
  const obs::RunManifest m = obs::collect_manifest("test_obs_report");
  EXPECT_EQ(m.tool, "test_obs_report");
  EXPECT_FALSE(m.git_sha.empty());
  EXPECT_FALSE(m.build_type.empty());
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_GT(m.cpu_logical_cores, 0u);

  std::ostringstream out;
  obs::write_manifest_json(out, m);
  const obs::FlatJson doc = obs::parse_json_flat(out.str());
  EXPECT_EQ(doc.string("tool"), "test_obs_report");
  EXPECT_EQ(doc.string("git_sha"), m.git_sha);
  EXPECT_DOUBLE_EQ(doc.number("cpu_logical_cores"),
                   static_cast<double>(m.cpu_logical_cores));
}

// --------------------------------------------- recorder + report document

TEST(RunRecorder, StageScopeRecordsOnlyWhenEnabled) {
  obs::RunRecorder& recorder = obs::RunRecorder::instance();
  recorder.clear();
  recorder.set_enabled(false);
  { obs::StageScope scope("ignored"); }
  EXPECT_TRUE(recorder.stages().empty());

  recorder.set_enabled(true);
  {
    obs::StageScope scope("measured");
    volatile double sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  recorder.set_enabled(false);
  const std::vector<obs::StageSample> stages = recorder.stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].name, "measured");
  EXPECT_GE(stages[0].wall_seconds, 0.0);
  recorder.clear();
}

TEST(RunRecorder, StageScopeRecordsProcessCpuTime) {
  obs::RunRecorder& recorder = obs::RunRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  {
    obs::StageScope scope("busy");
    const double start = obs::process_cpu_seconds();
    while (obs::process_cpu_seconds() - start < 0.01) {
    }
  }
  recorder.set_enabled(false);
  const std::vector<obs::StageSample> stages = recorder.stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_GE(stages[0].cpu_seconds, 0.01);
  EXPECT_GE(stages[0].wall_seconds, 0.0);
  recorder.clear();
}

TEST(RunReport, RoundTripsThroughFlatParser) {
  obs::RunRecorder& recorder = obs::RunRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  { obs::StageScope scope("stage_a"); }
  { obs::StageScope scope("stage_b"); }
  recorder.set_enabled(false);

  std::ostringstream out;
  obs::write_run_report(out, obs::collect_manifest("test_obs_report"));
  const obs::FlatJson doc = obs::parse_json_flat(out.str());
  EXPECT_DOUBLE_EQ(doc.number("kcc_run_report_version"),
                   static_cast<double>(obs::kRunReportVersion));
  EXPECT_EQ(doc.string("manifest.tool"), "test_obs_report");
  EXPECT_EQ(doc.string("stages.0.name"), "stage_a");
  EXPECT_EQ(doc.string("stages.1.name"), "stage_b");
  EXPECT_TRUE(doc.has_number("stages.0.wall_seconds"));
  EXPECT_TRUE(doc.has_number("stages.0.cpu_seconds"));
  EXPECT_TRUE(doc.has_number("rss.peak_bytes"));
  EXPECT_GT(doc.number("rss.peak_bytes"), 0.0);
  // The metrics snapshot rides along.
  EXPECT_TRUE(doc.has_number("metrics.gauges.process_peak_rss_bytes.value"));
  recorder.clear();
}

TEST(RunReport, AnnotationsSerializeIntoTheReport) {
  obs::RunRecorder& recorder = obs::RunRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  obs::annotate_run("cpm_engine", "almost_exact");
  obs::annotate_run("cpm_exactness", "almost_exact");
  recorder.annotate("quoted", "a\"b");
  recorder.set_enabled(false);

  std::ostringstream out;
  obs::write_run_report(out, obs::collect_manifest("test_obs_report"));
  const obs::FlatJson doc = obs::parse_json_flat(out.str());
  EXPECT_EQ(doc.string("annotations.cpm_engine"), "almost_exact");
  EXPECT_EQ(doc.string("annotations.cpm_exactness"), "almost_exact");
  EXPECT_EQ(doc.string("annotations.quoted"), "a\"b");
  recorder.clear();

  // With the recorder disabled the free function is a no-op, so engines can
  // stamp annotations unconditionally.
  obs::annotate_run("ignored", "x");
  EXPECT_TRUE(recorder.annotations().empty());
}

TEST(RunReport, WriteFileRejectsBadPath) {
  EXPECT_THROW(obs::write_run_report_file(
                   "/nonexistent/dir/report.json",
                   obs::collect_manifest("test_obs_report")),
               Error);
}

// ------------------------------------------------------ histogram quantiles

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
  obs::Histogram h({10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  // 10 observations in (10, 20]: quantiles interpolate across that bucket.
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.1), 11.0);
}

TEST(HistogramQuantile, FirstBucketInterpolatesFromZero) {
  obs::Histogram h({10.0, 20.0});
  for (int i = 0; i < 4; ++i) h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);
}

TEST(HistogramQuantile, OverflowClampsToLargestBound) {
  obs::Histogram h({1.0, 2.0});
  h.observe(100.0);
  h.observe(200.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(HistogramQuantile, JsonExportEmitsPercentiles) {
  obs::Histogram& h = obs::metrics().histogram(
      "test_quantile_export", obs::Histogram::linear_bounds(1.0, 1.0, 4));
  for (int i = 0; i < 100; ++i) h.observe(2.5);
  std::ostringstream out;
  obs::metrics().write_json(out);
  const obs::FlatJson doc = obs::parse_json_flat(out.str());
  EXPECT_DOUBLE_EQ(
      doc.number("histograms.test_quantile_export.p50"), 2.5);
  EXPECT_TRUE(doc.has_number("histograms.test_quantile_export.p90"));
  EXPECT_TRUE(doc.has_number("histograms.test_quantile_export.p99"));
}

// -------------------------------------------------- tracer drop accounting

TEST(TracerDrops, OverflowIncrementsDroppedSpansCounter) {
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::Counter& dropped =
      obs::metrics().counter("trace_dropped_spans_total");
  const std::uint64_t before = dropped.value();
  tracer.clear();
  tracer.set_enabled(true);
  // Fill this thread's bounded buffer, then overflow it by three.
  for (std::size_t i = 0; i < obs::Tracer::kMaxEventsPerThread + 3; ++i) {
    tracer.record("spam", 0, 1);
  }
  tracer.set_enabled(false);
  EXPECT_GE(tracer.dropped_count(), 3u);
  EXPECT_GE(dropped.value(), before + 3);
  tracer.clear();
}

}  // namespace
}  // namespace kcc
