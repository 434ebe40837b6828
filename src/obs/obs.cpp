#include "obs/obs.h"

#include <fstream>
#include <iostream>

#include "common/error.h"
#include "common/timer.h"

namespace kcc::obs {

void write_artifact(const std::string& path, const char* what,
                    const std::function<void(std::ostream&)>& write,
                    bool binary) {
  if (path == "-") {
    write(std::cout);
    std::cout.flush();
    require(std::cout.good(),
            "obs: failed writing ", what, " to stdout");
    return;
  }
  std::ofstream out(path, binary ? std::ios::out | std::ios::binary
                                 : std::ios::out);
  require(out.good(), "obs: cannot write ", what, " file ", path);
  write(out);
  require(out.good(), "obs: failed writing ", what, " file ", path);
}

void configure(const ObsOptions& options) {
  if (!options.log_level.empty()) {
    set_log_level(parse_log_level(options.log_level));
  }
  if (!options.trace_out.empty()) {
    Tracer::instance().set_enabled(true);
  }
  if (!options.report_out.empty()) {
    RunRecorder::instance().set_enabled(true);
  }
}

void finish(const ObsOptions& options) {
  Timer timer;  // lap() per artifact: export cost is itself worth seeing
  const std::size_t dropped = Tracer::instance().dropped_count();
  if (dropped > 0) {
    // The tracer already counted each drop into trace_dropped_spans_total;
    // say it out loud too: a trace silently missing spans is the failure
    // mode this warning exists for.
    KCC_LOG(kWarn) << "tracer dropped " << dropped
                   << " spans (per-thread buffer overflow); the exported "
                      "trace is truncated — see trace_dropped_spans_total";
  }
  if (!options.trace_out.empty()) {
    write_trace_file(options.trace_out);
    KCC_LOG(kInfo) << "trace written to " << options.trace_out << " ("
                   << Tracer::instance().event_count() << " spans, "
                   << timer.lap() << "s)";
  }
  if (!options.metrics_out.empty()) {
    write_metrics_file(options.metrics_out);
    KCC_LOG(kInfo) << "metrics written to " << options.metrics_out << " ("
                   << timer.lap() << "s)";
  }
  if (!options.report_out.empty()) {
    const RunManifest manifest =
        collect_manifest(options.tool.empty() ? "kcc" : options.tool);
    write_run_report_file(options.report_out, manifest);
    KCC_LOG(kInfo) << "run report written to " << options.report_out << " ("
                   << timer.lap() << "s)";
  }
}

void write_trace_file(const std::string& path) {
  write_artifact(path, "trace", [](std::ostream& out) {
    Tracer::instance().write_chrome_trace(out);
    out << "\n";
  });
}

void write_metrics_file(const std::string& path) {
  const bool prometheus =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  write_artifact(path, "metrics", [prometheus](std::ostream& out) {
    if (prometheus) {
      metrics().write_prometheus(out);
    } else {
      metrics().write_json(out);
      out << "\n";
    }
  });
}

}  // namespace kcc::obs
