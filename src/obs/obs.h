// Umbrella for the observability layer: one include pulls in the logger,
// metrics registry, and tracer, plus the shared CLI glue (--log-level,
// --trace-out, --metrics-out) used by tools/kcc and the bench harnesses.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace kcc::obs {

/// Parsed observability CLI options shared by every front end. Every output
/// path accepts "-" for stdout, so fuzz/bench runs can pipe artifacts
/// without temp files.
struct ObsOptions {
  std::string log_level;    // "" keeps the current (env-derived) level
  std::string trace_out;    // "" disables tracing
  std::string metrics_out;  // "" disables the metrics dump
  std::string report_out;   // "" disables the run report (obs/report.h)
  std::string tool;         // manifest attribution; "" = "kcc"
};

/// Applies the options: sets the log level, enables the tracer when a trace
/// output path is requested, and enables the RunRecorder when a run report
/// is requested. Call before running instrumented work.
void configure(const ObsOptions& options);

/// Writes the requested artifacts: Chrome-trace JSON to `trace_out`, the
/// metrics JSON dump to `metrics_out`, and the run report to `report_out`
/// (any may be empty = skip, or "-" = stdout). Warns when the tracer
/// dropped spans (the Chrome trace is truncated). Throws kcc::Error when a
/// file cannot be written.
void finish(const ObsOptions& options);

/// Runs `write(stream)` against `path`, where "-" selects stdout — the one
/// artifact-output convention every tool shares (trace/metrics/report
/// sidecars, `kcc --snapshot-out`, bench JSON). File errors throw
/// kcc::Error with `what` naming the artifact. `binary` opens files in
/// binary mode (snapshots); stdout is used as-is either way.
void write_artifact(const std::string& path, const char* what,
                    const std::function<void(std::ostream&)>& write,
                    bool binary = false);

/// Writes the current trace buffer as Chrome trace_event JSON to `path`
/// ("-" = stdout).
void write_trace_file(const std::string& path);

/// Writes the current metrics registry as JSON to `path` ("-" = stdout). A
/// path ending in ".prom" selects the Prometheus text exposition format
/// instead.
void write_metrics_file(const std::string& path);

}  // namespace kcc::obs
