// kcc_bench — the perf observatory driver.
//
// Runs an engine × clique-backend matrix over a synthetic ecosystem with N
// repetitions each (every repetition in a forked child so peak-RSS deltas
// and hw-counter windows are clean), reports median + MAD noise bands per
// metric, writes a versioned run-report JSON, optionally appends one line
// to a bench/trajectory/ history file, and — with --compare — gates the
// run against a baseline report, exiting nonzero on statistically
// significant regressions.
//
//   kcc_bench [--scale=test|bench|paper] [--seed=N] [--reps=5] [--threads=0]
//             [--engines=sweep,per_k,incremental,almost_exact,reference]
//             [--backends=sparse,bitset] [--no-budgeted]
//             [--out=REPORT.json] [--trajectory=FILE.jsonl]
//             [--compare=BASELINE.json] [--in=REPORT.json]
//             [--rel-tol=0.10] [--mad-k=5.0]
//
// The regression gate: for each config label present in both reports and
// each gated metric (wall_ms, peak_rss_bytes), the new median regresses iff
//   new_median - base_median > max(rel_tol * base_median,
//                                  mad_k * max(base_mad, new_mad)).
// The MAD term absorbs machine noise (a metric that genuinely jitters gets
// a proportionally wider band); the relative term is the floor for very
// stable metrics. --in=REPORT.json skips the fresh run and compares two
// files directly (the ctest self-tests use this; see docs/TESTING.md for
// how to read a failure).
//
// The default engine list and each config's capabilities (exponential ->
// tiny fixed graph, approximate -> exempt from the cross-config digest
// gate) come from the cpm engine registry, so a newly registered backend
// joins the matrix without touching this driver.
//
// The reference engine is exponential, so its configs run on a fixed tiny
// random graph (not the --scale ecosystem): its rows track the trend of
// the literal-definition engine, not a same-workload comparison.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/timer.h"
#include "cpm/engine.h"
#include "cpm/sweep_cpm.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "synth/as_topology.h"

namespace {

using namespace kcc;

// ------------------------------------------------------------- matrix setup

struct BenchConfig {
  std::string label;           // "sweep/sparse", "sweep-budget/sparse", ...
  std::string engine;          // registry name
  clique::Backend backend;
  std::uint64_t memory_budget = 0;
  bool tiny_graph = false;     // reference: capped graph, not the ecosystem
  bool exact = true;           // approximate engines skip the digest gate
};

struct DriverOptions {
  std::string scale = "bench";
  std::uint64_t seed = 42;
  int reps = 5;
  std::size_t threads = 0;
  std::vector<std::string> engines;  // default: every registered engine
  std::vector<std::string> backends{"sparse", "bitset"};
  bool budgeted = true;
  std::string out = "kcc_bench_report.json";
  std::string trajectory;      // "" = no history append
  std::string compare;         // baseline path; "" = no gate
  std::string in;              // pre-existing report; "" = run fresh
  double rel_tol = 0.10;
  double mad_k = 5.0;
  obs::ObsOptions obs;
};

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

SynthParams scale_params(const std::string& scale) {
  if (scale == "test") return SynthParams::test_scale();
  if (scale == "bench") return SynthParams::bench_scale();
  if (scale == "paper") return SynthParams::paper_scale();
  throw Error("kcc_bench: unknown --scale '" + scale + "' (test|bench|paper)");
}

int usage(std::ostream& out, int rc) {
  out <<
      "usage: kcc_bench [--scale=test|bench|paper] [--seed=N] [--reps=5]\n"
      "                 [--threads=0] [--engines=a,b,...] [--backends=a,b]\n"
      "                 [--no-budgeted] [--out=REPORT.json]\n"
      "                 [--trajectory=FILE.jsonl] [--compare=BASELINE.json]\n"
      "                 [--in=REPORT.json] [--rel-tol=0.10] [--mad-k=5.0]\n"
      "                 [--log-level=L] [--trace-out=F] [--metrics-out=F]\n"
      "                 [--report-out=F] [--help]\n"
      "\n"
      "Runs the engine x clique-backend perf matrix (forked repetitions,\n"
      "median + MAD per metric), writes a versioned run-report JSON, and\n"
      "with --compare gates the run against a baseline report (see\n"
      "docs/TESTING.md#reading-a-compare-failure). --in=REPORT.json skips\n"
      "the fresh run and compares two report files directly.\n";
  return rc;
}

DriverOptions parse_args(int argc, char** argv) {
  const std::vector<std::string> known{
      "scale",   "seed",    "reps",      "threads", "engines",
      "backends", "no-budgeted", "out",  "trajectory", "compare",
      "in",      "rel-tol", "mad-k",     "log-level", "trace-out",
      "metrics-out", "report-out", "help"};
  const CliArgs args(argc, argv, known);
  if (args.get_bool("help", false)) {
    usage(std::cout, 0);
    std::exit(0);
  }
  DriverOptions o;
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    o.engines.push_back(info.name);
  }
  o.scale = args.get_string("scale", o.scale);
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  o.reps = static_cast<int>(args.get_int("reps", o.reps));
  require(o.reps >= 1, "kcc_bench: --reps must be >= 1");
  o.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  if (args.has("engines")) {
    o.engines = split_csv(args.get_string("engines", ""));
    require(!o.engines.empty(), "kcc_bench: --engines must name at least one");
  }
  if (args.has("backends")) {
    o.backends = split_csv(args.get_string("backends", ""));
    require(!o.backends.empty(),
            "kcc_bench: --backends must name at least one");
  }
  if (args.get_bool("no-budgeted", false)) o.budgeted = false;
  o.out = args.get_string("out", o.out);
  o.trajectory = args.get_string("trajectory", "");
  o.compare = args.get_string("compare", "");
  o.in = args.get_string("in", "");
  o.rel_tol = args.get_double("rel-tol", o.rel_tol);
  o.mad_k = args.get_double("mad-k", o.mad_k);
  o.obs.log_level = args.get_string("log-level", "");
  o.obs.trace_out = args.get_string("trace-out", "");
  o.obs.metrics_out = args.get_string("metrics-out", "");
  o.obs.report_out = args.get_string("report-out", "");
  o.obs.tool = "kcc_bench";
  require(o.in.empty() || !o.compare.empty(),
          "kcc_bench: --in only makes sense together with --compare");
  return o;
}

std::vector<BenchConfig> build_matrix(const DriverOptions& o) {
  std::vector<BenchConfig> matrix;
  for (const std::string& engine_name : o.engines) {
    const cpm::EngineInfo& info = cpm::engine_info(engine_name);
    for (const std::string& backend_name : o.backends) {
      BenchConfig config;
      config.engine = engine_name;
      config.backend = clique::parse_backend(backend_name);
      config.label = engine_name + "/" + backend_name;
      config.tiny_graph = info.caps.exponential;
      config.exact = info.caps.exact;
      matrix.push_back(config);
    }
  }
  for (const std::string& engine_name : o.engines) {
    const cpm::EngineInfo& info = cpm::engine_info(engine_name);
    if (!o.budgeted || !info.caps.supports_memory_budget) continue;
    BenchConfig config;
    config.engine = engine_name;
    config.backend = clique::Backend::kSparse;
    // Small enough to force spilling at test scale and above.
    config.memory_budget = o.scale == "test" ? sweep_min_memory_budget()
                                             : 1024 * 1024;
    config.label = engine_name + "-budget/sparse";
    matrix.push_back(config);
  }
  return matrix;
}

// The reference engine's workload: the differential runner caps it at ~24
// nodes / 80 edges, and the same order of magnitude keeps a full
// until-empty k sweep in milliseconds here.
Graph tiny_reference_graph(std::uint64_t seed) {
  constexpr std::size_t kNodes = 24;
  Rng rng(seed);
  GraphBuilder b(kNodes);
  for (NodeId i = 0; i < kNodes; ++i) {
    for (NodeId j = i + 1; j < kNodes; ++j) {
      if (rng.next_bool(0.35)) b.add_edge(i, j);
    }
  }
  b.ensure_nodes(kNodes);
  return b.build();
}

// ------------------------------------------------------- per-rep execution

// Everything one forked repetition reports back through its pipe.
struct RepSample {
  bool ok = false;
  double wall_ms = 0.0;
  double cliques_ms = 0.0;
  double percolate_ms = 0.0;
  double tree_ms = 0.0;
  std::uint64_t peak_rss_bytes = 0;  // VmHWM growth during the run
  std::uint64_t digest = 0;
  std::uint64_t communities = 0;
  int hw_available = 0;
  obs::HwCounterValues hw;
};

// One engine run in a fresh child: VmHWM is monotonic per process, and the
// hw-counter window must not include sibling repetitions.
RepSample run_rep_in_child(const Graph& g, const BenchConfig& config,
                           std::size_t threads) {
  int fds[2];
  RepSample sample;
  if (pipe(fds) != 0) return sample;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return sample;
  }
  if (pid == 0) {
    close(fds[0]);
    int exit_code = 1;
    std::string text;
    try {
      cpm::Options options;
      options.engine = config.engine;
      options.clique_backend = config.backend;
      options.memory_budget = config.memory_budget;
      options.threads = threads;
      // A fresh set owned by this child: counts inherited from the parent's
      // set do not aggregate into a forked child's live reads, so events
      // must attach to the child task itself (inherit=1 then covers the
      // thread-pool workers the engine spawns below).
      const obs::HwCounterSet counters;
      const std::uint64_t rss_baseline = obs::peak_rss_bytes();
      const obs::HwCounterValues hw_start = counters.read();
      Timer timer;
      cpm::Result result = cpm::Engine(options).run(g);
      const double wall_ms = timer.seconds() * 1e3;
      const obs::HwCounterValues hw = counters.read() - hw_start;
      const std::uint64_t peak_delta = obs::peak_rss_bytes() - rss_baseline;
      // Digest in canonical clique order (outside the timed window) so the
      // cross-config identity gate compares engines that preserve
      // enumeration order and engines that cannot (caps.
      // canonical_clique_order, e.g. incremental) on equal footing.
      cpm::canonicalise_clique_order(result);
      std::ostringstream line;
      line << wall_ms << ' ' << result.timings.cliques_seconds * 1e3 << ' '
           << result.timings.percolate_seconds * 1e3 << ' '
           << result.timings.tree_seconds * 1e3 << ' ' << peak_delta << ' '
           << cpm::canonical_digest(result) << ' '
           << result.cpm.total_communities() << ' '
           << (hw.available ? 1 : 0) << ' ' << hw.cycles << ' '
           << hw.instructions << ' ' << hw.branch_misses << ' '
           << hw.cache_misses << ' ' << hw.task_clock_ns << '\n';
      text = line.str();
      exit_code = 0;
    } catch (const std::exception& e) {
      text = std::string("error ") + e.what() + "\n";
    }
    const ssize_t written = write(fds[1], text.data(), text.size());
    close(fds[1]);
    _exit(exit_code == 0 && written == static_cast<ssize_t>(text.size())
              ? 0
              : 1);
  }
  close(fds[1]);
  std::string text;
  char buf[512];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) text.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "kcc_bench: " << config.label << " child failed";
    if (!text.empty()) std::cerr << ": " << text;
    std::cerr << "\n";
    return sample;
  }
  std::istringstream fields(text);
  std::uint64_t task_clock_ns = 0;
  fields >> sample.wall_ms >> sample.cliques_ms >> sample.percolate_ms >>
      sample.tree_ms >> sample.peak_rss_bytes >> sample.digest >>
      sample.communities >> sample.hw_available >> sample.hw.cycles >>
      sample.hw.instructions >> sample.hw.branch_misses >>
      sample.hw.cache_misses >> task_clock_ns;
  sample.hw.task_clock_ns = task_clock_ns;
  sample.hw.available = sample.hw_available != 0;
  sample.ok = !fields.fail();
  return sample;
}

// ------------------------------------------------------------- statistics

struct Stat {
  double median = 0.0;
  double mad = 0.0;  // median absolute deviation from the median
  std::vector<double> reps;
};

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

Stat stat_of(std::vector<double> values) {
  Stat s;
  s.median = median_of(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::fabs(v - s.median));
  s.mad = median_of(std::move(deviations));
  s.reps = std::move(values);
  return s;
}

struct ConfigResult {
  BenchConfig config;
  std::uint64_t digest = 0;
  std::uint64_t communities = 0;
  bool hw_available = false;
  // Insertion-ordered (metric name, stats): wall_ms, cliques_ms, ...
  std::vector<std::pair<std::string, Stat>> metrics;

  const Stat* find(const std::string& name) const {
    for (const auto& [metric, stat] : metrics) {
      if (metric == name) return &stat;
    }
    return nullptr;
  }
};

// -------------------------------------------------------------- reporting

std::string digest_hex(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_stat_json(std::ostream& out, const Stat& stat) {
  out << "{\"median\":" << format_number(stat.median)
      << ",\"mad\":" << format_number(stat.mad) << ",\"reps\":[";
  for (std::size_t i = 0; i < stat.reps.size(); ++i) {
    if (i > 0) out << ",";
    out << format_number(stat.reps[i]);
  }
  out << "]}";
}

struct GraphDims {
  std::size_t nodes = 0;
  std::size_t edges = 0;
};

void write_report(std::ostream& out, const DriverOptions& o,
                  const GraphDims& dims,
                  const std::vector<ConfigResult>& results) {
  out << "{\"kcc_run_report_version\":" << obs::kRunReportVersion;
  out << ",\"manifest\":";
  obs::write_manifest_json(out, obs::collect_manifest("kcc_bench"));
  out << ",\"scale\":\"" << o.scale << "\",\"seed\":" << o.seed
      << ",\"reps\":" << o.reps << ",\"threads\":" << o.threads;
  out << ",\"graph\":{\"nodes\":" << dims.nodes << ",\"edges\":" << dims.edges
      << "}";
  out << ",\"configs\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    if (i > 0) out << ",";
    out << "{\"label\":\"" << r.config.label << "\",\"engine\":\""
        << r.config.engine << "\",\"clique_backend\":\""
        << clique::backend_name(r.config.backend) << "\"";
    out << ",\"exact\":" << (r.config.exact ? "true" : "false");
    out << ",\"memory_budget_bytes\":" << r.config.memory_budget;
    out << ",\"graph\":\"" << (r.config.tiny_graph ? "tiny" : "scale")
        << "\"";
    out << ",\"digest\":\"" << digest_hex(r.digest) << "\"";
    out << ",\"communities\":" << r.communities;
    out << ",\"hw_available\":" << (r.hw_available ? "true" : "false");
    out << ",\"metrics\":{";
    for (std::size_t m = 0; m < r.metrics.size(); ++m) {
      if (m > 0) out << ",";
      out << "\"" << r.metrics[m].first << "\":";
      write_stat_json(out, r.metrics[m].second);
    }
    out << "}}";
  }
  out << "]}";
}

void append_trajectory(const std::string& path, const DriverOptions& o,
                       const std::vector<ConfigResult>& results) {
  std::ofstream out(path, std::ios::app);
  require(out.good(), "kcc_bench: cannot append to trajectory ", path);
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto seconds =
      std::chrono::duration_cast<std::chrono::seconds>(now).count();
  const obs::RunManifest manifest = obs::collect_manifest("kcc_bench");
  out << "{\"time_unix\":" << seconds << ",\"git_sha\":\"" << manifest.git_sha
      << (manifest.git_dirty ? "+dirty" : "") << "\",\"scale\":\"" << o.scale
      << "\",\"seed\":" << o.seed << ",\"reps\":" << o.reps
      << ",\"configs\":{";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    if (i > 0) out << ",";
    out << "\"" << r.config.label << "\":{";
    bool first = true;
    for (const auto& [metric, stat] : r.metrics) {
      if (!first) out << ",";
      first = false;
      out << "\"" << metric << "\":" << format_number(stat.median);
    }
    out << "}";
  }
  out << "}}\n";
  require(out.good(), "kcc_bench: failed appending to trajectory ", path);
}

// -------------------------------------------------------------- execution

int run_matrix(const DriverOptions& o, std::vector<ConfigResult>& results,
               GraphDims& dims) {
  SynthParams params = scale_params(o.scale);
  params.seed = o.seed;
  std::cout << "kcc_bench: generating " << o.scale << " ecosystem (seed "
            << o.seed << ")...\n";
  const Graph graph = generate_ecosystem(params).topology.graph;
  dims.nodes = graph.num_nodes();
  dims.edges = graph.num_edges();
  const Graph tiny = tiny_reference_graph(o.seed);
  std::cout << "kcc_bench: scale graph " << graph.num_nodes() << " nodes / "
            << graph.num_edges() << " edges; reference-capped graph "
            << tiny.num_nodes() << " nodes / " << tiny.num_edges()
            << " edges\n";
  std::cout << "kcc_bench: hw counters: "
            << obs::HwCounterSet::global().status() << "\n";

  const std::vector<BenchConfig> matrix = build_matrix(o);
  for (const BenchConfig& config : matrix) {
    const Graph& g = config.tiny_graph ? tiny : graph;
    ConfigResult result;
    result.config = config;
    std::vector<RepSample> samples;
    for (int rep = 0; rep < o.reps; ++rep) {
      RepSample sample = run_rep_in_child(g, config, o.threads);
      if (!sample.ok) {
        std::cerr << "kcc_bench: FAIL — " << config.label << " rep " << rep
                  << " did not report\n";
        return 2;
      }
      if (rep == 0) {
        result.digest = sample.digest;
        result.communities = sample.communities;
      } else if (sample.digest != result.digest) {
        std::cerr << "kcc_bench: FAIL — " << config.label
                  << " digest varies across repetitions ("
                  << digest_hex(result.digest) << " vs "
                  << digest_hex(sample.digest) << "); engine output is "
                  << "nondeterministic\n";
        return 2;
      }
      result.hw_available = result.hw_available || sample.hw.available;
      samples.push_back(std::move(sample));
    }

    auto collect = [&](auto&& get) {
      std::vector<double> values;
      values.reserve(samples.size());
      for (const RepSample& s : samples) values.push_back(get(s));
      return stat_of(std::move(values));
    };
    result.metrics.emplace_back(
        "wall_ms", collect([](const RepSample& s) { return s.wall_ms; }));
    result.metrics.emplace_back(
        "cliques_ms",
        collect([](const RepSample& s) { return s.cliques_ms; }));
    result.metrics.emplace_back(
        "percolate_ms",
        collect([](const RepSample& s) { return s.percolate_ms; }));
    result.metrics.emplace_back(
        "tree_ms", collect([](const RepSample& s) { return s.tree_ms; }));
    result.metrics.emplace_back(
        "peak_rss_bytes", collect([](const RepSample& s) {
          return static_cast<double>(s.peak_rss_bytes);
        }));
    if (result.hw_available) {
      result.metrics.emplace_back(
          "hw_cycles", collect([](const RepSample& s) {
            return static_cast<double>(s.hw.cycles);
          }));
      result.metrics.emplace_back(
          "hw_instructions", collect([](const RepSample& s) {
            return static_cast<double>(s.hw.instructions);
          }));
      result.metrics.emplace_back(
          "hw_branch_misses", collect([](const RepSample& s) {
            return static_cast<double>(s.hw.branch_misses);
          }));
      result.metrics.emplace_back(
          "hw_cache_misses", collect([](const RepSample& s) {
            return static_cast<double>(s.hw.cache_misses);
          }));
      result.metrics.emplace_back(
          "hw_task_clock_ms", collect([](const RepSample& s) {
            return static_cast<double>(s.hw.task_clock_ns) / 1e6;
          }));
    }

    const Stat* wall = result.find("wall_ms");
    const Stat* rss = result.find("peak_rss_bytes");
    std::cout << "kcc_bench: " << config.label << ": wall "
              << format_number(wall->median) << " ms (MAD "
              << format_number(wall->mad) << "), peak +"
              << static_cast<std::uint64_t>(rss->median) / (1024 * 1024)
              << " MiB, " << result.communities << " communities, digest "
              << digest_hex(result.digest) << "\n";
    results.push_back(std::move(result));
  }

  // Digest gate: every exact non-reference config ran the same workload, so
  // their canonical digests — taken in canonical clique order, see the
  // child — must agree (the differential fuzzer proves this
  // at depth; here it guards the measurement itself). Approximate engines
  // are exempt — their output contract is the F1 gap gate in
  // check::differential, not byte identity — but the per-rep determinism
  // check above still applies to them.
  const ConfigResult* baseline = nullptr;
  for (const ConfigResult& r : results) {
    if (r.config.tiny_graph || !r.config.exact) continue;
    if (baseline == nullptr) {
      baseline = &r;
    } else if (r.digest != baseline->digest) {
      std::cerr << "kcc_bench: FAIL — " << r.config.label
                << " digest differs from " << baseline->config.label
                << " on the same graph\n";
      return 2;
    }
  }
  return 0;
}

// ---------------------------------------------------------- compare gate

// Metrics the gate fails on; lower is better for all of them. Everything
// else in the report is context, not a gate.
const std::vector<std::string>& gated_metrics() {
  static const std::vector<std::string> metrics{"wall_ms", "peak_rss_bytes"};
  return metrics;
}

int compare_reports(const obs::FlatJson& base, const obs::FlatJson& fresh,
                    const DriverOptions& o) {
  const double base_version = base.number("kcc_run_report_version", -1);
  const double fresh_version = fresh.number("kcc_run_report_version", -1);
  require(base_version >= 1 && base_version <= obs::kRunReportVersion,
          "kcc_bench: baseline report version unsupported");
  require(fresh_version >= 1 && fresh_version <= obs::kRunReportVersion,
          "kcc_bench: new report version unsupported");

  // Index the fresh report's configs by label.
  std::map<std::string, std::string> fresh_prefix_of;  // label -> "configs.N"
  for (std::size_t i = 0;; ++i) {
    const std::string prefix = "configs." + std::to_string(i);
    const std::string label = fresh.string(prefix + ".label");
    if (label.empty()) break;
    fresh_prefix_of[label] = prefix;
  }

  int regressions = 0;
  int compared = 0;
  for (std::size_t i = 0;; ++i) {
    const std::string base_prefix = "configs." + std::to_string(i);
    const std::string label = base.string(base_prefix + ".label");
    if (label.empty()) break;
    const auto it = fresh_prefix_of.find(label);
    if (it == fresh_prefix_of.end()) {
      std::cout << "compare: " << label
                << ": not in the new report — skipped\n";
      continue;
    }
    const std::string& fresh_prefix = it->second;

    const std::string base_digest = base.string(base_prefix + ".digest");
    const std::string fresh_digest = fresh.string(fresh_prefix + ".digest");
    if (!base_digest.empty() && !fresh_digest.empty() &&
        base_digest != fresh_digest) {
      // Different commits may legitimately change canonical output; the
      // perf gate stays perf-only, but the drift deserves a loud note.
      std::cout << "compare: " << label << ": NOTE digest drift ("
                << base_digest << " -> " << fresh_digest << ")\n";
    }

    for (const std::string& metric : gated_metrics()) {
      const std::string base_m = base_prefix + ".metrics." + metric;
      const std::string fresh_m = fresh_prefix + ".metrics." + metric;
      if (!base.has_number(base_m + ".median") ||
          !fresh.has_number(fresh_m + ".median")) {
        continue;
      }
      ++compared;
      const double base_median = base.number(base_m + ".median");
      const double fresh_median = fresh.number(fresh_m + ".median");
      const double noise_band =
          o.mad_k * std::max(base.number(base_m + ".mad"),
                             fresh.number(fresh_m + ".mad"));
      const double threshold =
          std::max(o.rel_tol * base_median, noise_band);
      const double delta = fresh_median - base_median;
      const bool regressed = delta > threshold;
      if (regressed) ++regressions;
      std::cout << "compare: " << label << " " << metric << ": "
                << format_number(base_median) << " -> "
                << format_number(fresh_median) << " (delta "
                << format_number(delta) << ", threshold "
                << format_number(threshold) << ") "
                << (regressed ? "REGRESSION" : "ok") << "\n";
    }
  }
  require(compared > 0,
          "kcc_bench: no overlapping config/metric between baseline and new "
          "report — nothing was gated (wrong baseline file?)");
  if (regressions > 0) {
    std::cerr << "kcc_bench: FAIL — " << regressions
              << " statistically significant regression(s) vs baseline "
              << "(threshold = max(rel_tol=" << o.rel_tol
              << " * base, mad_k=" << o.mad_k << " * MAD)); see "
              << "docs/TESTING.md#reading-a-compare-failure\n";
    return 1;
  }
  std::cout << "kcc_bench: compare OK — no significant regressions ("
            << compared << " metric comparisons)\n";
  return 0;
}

int run_driver(const DriverOptions& o) {
  std::string fresh_text;
  if (o.in.empty()) {
    std::vector<ConfigResult> results;
    GraphDims dims;
    const int rc = run_matrix(o, results, dims);
    if (rc != 0) return rc;
    std::ostringstream report;
    write_report(report, o, dims, results);
    fresh_text = report.str();
    if (!o.out.empty()) {
      std::ofstream out(o.out);
      require(out.good(), "kcc_bench: cannot write ", o.out);
      out << fresh_text << "\n";
      require(out.good(), "kcc_bench: failed writing ", o.out);
      std::cout << "kcc_bench: wrote " << o.out << "\n";
    }
    if (!o.trajectory.empty()) {
      append_trajectory(o.trajectory, o, results);
      std::cout << "kcc_bench: appended to " << o.trajectory << "\n";
    }
  } else {
    std::ifstream in(o.in);
    require(in.good(), "kcc_bench: cannot read --in report ", o.in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    fresh_text = buffer.str();
  }

  if (o.compare.empty()) return 0;
  const obs::FlatJson base = obs::read_json_flat_file(o.compare);
  const obs::FlatJson fresh = obs::parse_json_flat(fresh_text);
  return compare_reports(base, fresh, o);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const DriverOptions options = parse_args(argc, argv);
    obs::configure(options.obs);
    const int rc = run_driver(options);
    obs::finish(options.obs);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "kcc_bench: error: " << e.what() << "\n";
    return 2;
  }
}
