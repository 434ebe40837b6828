// Shared scaffolding for the experiment harness binaries.
//
// Every table_* / fig_* / sec_* binary runs the full pipeline on a synthetic
// ecosystem (bench scale by default; --scale test|bench|paper, --seed N) and
// prints one experiment's paper-vs-measured comparison. The shared engine
// flags --k-min/--k-max/--engine/--threads (cpm::engine_cli_flags) select
// the percolation engine; the sweep engine is the default.
//
// Observability: each harness accepts --log-level=, --trace-out=FILE,
// --metrics-out=FILE and --report-out=FILE (see docs/OBSERVABILITY.md; any
// FILE may be - for stdout). Unless disabled with an explicit empty
// --metrics-out=, every run writes a metrics sidecar next to the working
// directory (<binary>.metrics.json) so experiment records carry their
// counters. --report-out additionally captures the full run report:
// build/host manifest, per-stage wall + hw counters + RSS, metrics.
#pragma once

#include <iostream>
#include <string>

#include "analysis/pipeline.h"
#include "common/cli.h"
#include "obs/obs.h"

namespace kcc::bench {

struct HarnessConfig {
  PipelineOptions pipeline;
  std::string scale = "bench";
  obs::ObsOptions obs;
};

/// Parses the standard harness flags. argv[0] seeds the default metrics
/// sidecar path (<basename>.metrics.json).
HarnessConfig parse_harness_args(int argc, char** argv);

/// Runs the pipeline and prints the standard run header.
PipelineResult run_harness(const HarnessConfig& config);

/// The "k<k>id<id>" label of community `id` at level `k`.
std::string community_label(std::size_t k, std::size_t id);

/// Prints the experiment banner.
void banner(const std::string& experiment, const std::string& paper_claim);

/// Wraps main() bodies: configures observability, runs `body`, writes the
/// requested trace/metrics artifacts, catching and reporting errors.
int guarded_main(int argc, char** argv,
                 const std::string& experiment, const std::string& paper_claim,
                 int (*body)(const HarnessConfig&));

}  // namespace kcc::bench
