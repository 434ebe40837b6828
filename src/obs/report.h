// Run reports: one versioned JSON document per run that makes any two runs
// comparable — manifest (git sha, build type/flags, CPU, thread budget),
// per-stage wall and CPU times with RSS, and the final metrics-registry
// snapshot.
//
// Three pieces:
//   * RunManifest / collect_manifest() — the configure-time build facts
//     (generated obs/build_info.h) joined with runtime host facts
//     (/proc/cpuinfo model, logical cores, hostname).
//   * RunRecorder + StageScope — engines wrap each stage (cliques /
//     percolate / tree) in a StageScope; when a recorder is enabled
//     (--report-out), the scope appends a StageSample. Like the Tracer, the
//     recorder is a process-global so stage producers need no plumbing.
//   * write_run_report() — serializes everything as schema-versioned JSON
//     (`kcc_run_report_version`), and parse_json_flat() reads any such
//     document back as dotted-path → value maps (the kcc_bench --compare
//     gate consumes baselines through it).
//
// docs/OBSERVABILITY.md documents the JSON schema.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace kcc::obs {

/// Schema version written into every run report / bench report. Bump when a
/// field changes meaning; readers reject documents with a newer version.
constexpr int kRunReportVersion = 2;

/// Everything needed to attribute a measurement to a build + host + config.
struct RunManifest {
  std::string tool;        // producing binary, e.g. "kcc_bench"
  std::string git_sha;     // configure-time sha, "unknown" outside a repo
  bool git_dirty = false;  // uncommitted changes at configure time
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::string compiler;    // "GNU 12.2.0"
  std::string cxx_flags;   // effective flags incl. build-type flags
  std::string sanitize;    // KCC_SANITIZE value ("" = off)
  std::string cpu_model;   // /proc/cpuinfo "model name" ("" elsewhere)
  std::size_t cpu_logical_cores = 0;
  std::string hostname;
};

/// Fills a manifest from build_info.h + the running host.
RunManifest collect_manifest(const std::string& tool);

/// Writes the manifest as one JSON object (no trailing newline).
void write_manifest_json(std::ostream& out, const RunManifest& manifest);

/// One instrumented stage: wall clock, process CPU time, RSS after.
struct StageSample {
  std::string name;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  // user + system, summed over all threads
  std::uint64_t rss_after_bytes = 0;
};

/// Process-global collector StageScopes report into when enabled. Disabled
/// by default (one relaxed atomic load per stage); tools enable it when the
/// user asks for a run report.
class RunRecorder {
 public:
  static RunRecorder& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void record(StageSample sample);
  std::vector<StageSample> stages() const;

  /// Key → value facts attached to the report (engine name, exactness, …);
  /// serialized under "annotations". Last write per key wins.
  void annotate(const std::string& key, std::string value);
  std::map<std::string, std::string> annotations() const;

  void clear();

 private:
  RunRecorder() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<StageSample> stages_;
  std::map<std::string, std::string> annotations_;
};

/// Attaches `key` = `value` to the active run report. No-op (one relaxed
/// atomic load) when no recorder is enabled, so producers — e.g.
/// cpm::Engine stamping engine/exactness provenance — can call it
/// unconditionally.
void annotate_run(const std::string& key, std::string value);

/// RAII stage instrumentation. On destruction, appends a StageSample to the
/// RunRecorder when it was enabled at construction. The clocks are read only
/// then, so a scope with the recorder off costs one relaxed flag load.
class StageScope {
 public:
  explicit StageScope(const char* name);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  const char* name_;
  bool recording_;
  double start_seconds_ = 0.0;
  double start_cpu_seconds_ = 0.0;
};

/// Serializes the full run report: manifest, recorded stages, RSS
/// (current + peak), and the metrics-registry snapshot.
void write_run_report(std::ostream& out, const RunManifest& manifest);

/// write_run_report to `path` ("-" = stdout). Throws kcc::Error on I/O
/// failure.
void write_run_report_file(const std::string& path,
                           const RunManifest& manifest);

/// A JSON document flattened to dotted paths: {"a":{"b":[1,"x"]}} becomes
/// numbers["a.b.0"] == 1 and strings["a.b.1"] == "x". Booleans land in
/// numbers as 0/1; nulls are skipped.
struct FlatJson {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;

  bool has_number(const std::string& path) const {
    return numbers.count(path) != 0;
  }
  double number(const std::string& path, double fallback = 0.0) const;
  std::string string(const std::string& path,
                     const std::string& fallback = "") const;
};

/// Minimal JSON reader for documents this library writes (reports,
/// baselines). Throws kcc::Error on malformed input.
FlatJson parse_json_flat(const std::string& text);

/// Reads and flattens a JSON file. Throws kcc::Error on I/O or parse error.
FlatJson read_json_flat_file(const std::string& path);

}  // namespace kcc::obs
