#include "harness.h"

#include <filesystem>

#include "common/error.h"
#include "common/table.h"
#include "common/timer.h"

namespace kcc::bench {
namespace {

std::string default_metrics_path(const char* argv0) {
  if (argv0 == nullptr || *argv0 == '\0') return "kcc_bench.metrics.json";
  return std::filesystem::path(argv0).filename().string() + ".metrics.json";
}

}  // namespace

HarnessConfig parse_harness_args(int argc, char** argv) {
  std::vector<std::string> known{"scale", "seed", "log-level", "trace-out",
                                 "metrics-out", "report-out"};
  for (const std::string& flag : cpm::engine_cli_flags()) {
    known.push_back(flag);
  }
  const CliArgs args(argc, argv, known);
  HarnessConfig config;
  config.scale = args.get_string("scale", "bench");
  if (config.scale == "test") {
    config.pipeline.synth = SynthParams::test_scale();
  } else if (config.scale == "bench") {
    config.pipeline.synth = SynthParams::bench_scale();
  } else if (config.scale == "paper") {
    config.pipeline.synth = SynthParams::paper_scale();
  } else {
    throw Error("unknown --scale '" + config.scale + "' (test|bench|paper)");
  }
  config.pipeline.synth.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.pipeline.cpm = cpm::options_from_cli(args, config.pipeline.cpm);
  config.obs.log_level = args.get_string("log-level", "");
  config.obs.trace_out = args.get_string("trace-out", "");
  // The metrics sidecar is on by default (--metrics-out= disables it); every
  // experiment record is accompanied by its counters.
  config.obs.metrics_out = args.has("metrics-out")
                               ? args.get_string("metrics-out", "")
                               : default_metrics_path(argc > 0 ? argv[0]
                                                               : nullptr);
  config.obs.report_out = args.get_string("report-out", "");
  config.obs.tool =
      argc > 0 && argv[0] != nullptr && *argv[0] != '\0'
          ? std::filesystem::path(argv[0]).filename().string()
          : "";
  return config;
}

PipelineResult run_harness(const HarnessConfig& config) {
  Timer timer;
  PipelineResult result = run_pipeline(config.pipeline);
  std::cout << "[run] scale=" << config.scale
            << " engine=" << config.pipeline.cpm.engine
            << " seed=" << config.pipeline.synth.seed << " ases="
            << result.eco.num_ases() << " edges="
            << result.eco.topology.graph.num_edges() << " cliques="
            << result.cpm.cliques.size() << " max_k=" << result.cpm.max_k
            << " elapsed=" << fixed(timer.seconds(), 2) << "s\n\n";
  return result;
}

std::string community_label(std::size_t k, std::size_t id) {
  // Appended piecewise: gcc 12 -Wrestrict misfires on "k" + std::string.
  std::string label = "k";
  label += std::to_string(k);
  label += "id";
  label += std::to_string(id);
  return label;
}

void banner(const std::string& experiment, const std::string& paper_claim) {
  std::cout << "=== " << experiment << " ===\n";
  std::cout << "Paper: " << paper_claim << "\n\n";
}

int guarded_main(int argc, char** argv, const std::string& experiment,
                 const std::string& paper_claim,
                 int (*body)(const HarnessConfig&)) {
  try {
    banner(experiment, paper_claim);
    const HarnessConfig config = parse_harness_args(argc, argv);
    obs::configure(config.obs);
    Timer timer;
    const int rc = body(config);
    KCC_LOG(kInfo) << experiment << ": body finished in " << timer.lap()
                   << "s";
    obs::finish(config.obs);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace kcc::bench
