// kccbench: runs one benchmark workload in this process and prints
// its metrics. README.md in this directory defines the workloads, the
// metrics and the layer -> end-to-end predictions; run.py builds this
// binary and is the command to invoke.
//
//   kccbench --workload=cpm_full|update_flap|serve_mix --seed=N
//                   --seconds=S --trace=0|1 --work-dir=DIR
//                   [--scale=paper|test] [--spans-out=PATH]
//                   [--corrupt-oracle]
//
// Every workload has the same shape: set up (kSetupReps times; the median
// is setup_s), warm up, run timed operations, then check every output
// against an oracle. Checks stay outside the timed region and the CPU
// accounting, and do not set the peak RSS.
//
// --trace=0 reports the end-to-end metrics. --trace=1 spends half the time
// untraced and half traced: the traced half records a span around every
// call into a library layer, the spans go to --spans-out, and the per-layer
// metrics are derived from them. Comparing the halves gives
// trace.overhead_frac. --corrupt-oracle flips one expected answer, so the
// run must report failures and exit 1 (the benchmark's self-test).
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the lines before it are a human-readable report. The exit
// status is 0 only when every operation checked correct.

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clique/enumerator.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cpm/clique_index.h"
#include "cpm/engine.h"
#include "cpm/incr_cpm.h"
#include "cpm/sweep_cpm.h"
#include "io/edge_list.h"
#include "io/snapshot.h"
#include "obs/build_info.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query.h"
#include "serve/server.h"
#include "synth/as_topology.h"

namespace kccbench {
namespace {

using namespace kcc;

// Fixed run shape, recorded in every output. Engine threads plus serve
// connections (each served by one server thread) stay within 4 cores.
constexpr std::size_t kEngineThreads = 1;
/// Generator seed of the paper-scale topology every workload runs on. The
/// command-line seed drives everything else (edge-list order, flap
/// batches, the query stream): generator seeds change the amount of work
/// itself (cpm_full's peak RSS ranged 144-196 MB over seeds 1-5).
constexpr std::uint64_t kTopologySeed = 42;
constexpr std::size_t kServeClients = 2;
constexpr int kSetupReps = 5;
constexpr std::size_t kWarmupOps = 2;              // cpm_full, update_flap
constexpr std::size_t kServeWarmupQueries = 2000;  // per connection
constexpr double kFlapChurn = 0.01;                // batch size / |E|
/// update_flap runs a fixed number of timed batches per second of
/// --seconds (about --seconds of work at the seed commit's ~0.7 s per
/// batch) rather than stopping on a clock: the incremental engine's memory
/// grows with the batches it has applied (lazily invalidated index
/// entries), so a clock-bounded run would report a higher peak_rss_mb for
/// a faster build.
constexpr double kFlapOpsPerSecond = 1.5;
/// A pair is flap-eligible when an endpoint has degree <= this (the
/// peripheral churn model of bench/perf_incr.cpp).
constexpr std::uint32_t kFlapDegreeMax = 64;
/// Spans written per serve connection; metrics use every span in memory.
constexpr std::size_t kMaxWrittenServeOps = 10000;

// ------------------------------------------------------------ measurement

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time, user + sys, summed over all threads.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Single-threaded timed phase: wall and CPU accumulate around each
/// operation body only, so in-loop checks stay outside both.
struct Phase {
  std::vector<double> latency_ms;
  double busy_s = 0.0;
  double cpu_s = 0.0;

  std::size_t ops() const { return latency_ms.size(); }
};

class OpTimer {
 public:
  OpTimer() : wall0_(now_ns()), cpu0_(cpu_seconds()) {}
  void stop(Phase& phase) const {
    const double ms = 1e-6 * static_cast<double>(now_ns() - wall0_);
    phase.latency_ms.push_back(ms);
    phase.busy_s += 1e-3 * ms;
    phase.cpu_s += cpu_seconds() - cpu0_;
  }

 private:
  std::int64_t wall0_;
  double cpu0_;
};

// ------------------------------------------------------------ spans

/// One recorded call into a layer. `op` groups the spans of one operation;
/// `parent` indexes the enclosing span in the same log (-1 = none).
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t op = -1;
  int thread = 0;
};

/// Per-thread in-memory span log, written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) {}

  int open(const char* name, std::int64_t op) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, op, thread_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<SpanRecord>& spans() { return spans_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int thread_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log (untraced phase) records nothing.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::int64_t op) : log_(log) {
    if (log_ != nullptr) index_ = log_->open(name, op);
  }
  ~Span() {
    if (log_ != nullptr) log_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int index_ = -1;
};

/// Imports the library's own top-level `sweep_cpm/*` spans (obs::Tracer,
/// microsecond resolution) as children named "sweep" of the log's span
/// that contains them in time. IncrementalCpm::result() re-enters the sweep
/// tail internally, so this is the only way to split materialize into its
/// sweep and its own work. `offset_ns` maps tracer time onto now_ns().
void import_sweep_spans(SpanLog& log, std::int64_t offset_ns) {
  std::ostringstream chrome;
  obs::Tracer::instance().write_chrome_trace(chrome);
  const std::string text = chrome.str();
  const std::string key = "{\"name\":\"sweep_cpm/";
  std::vector<SpanRecord>& spans = log.spans();
  const std::size_t existing = spans.size();
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + 1)) {
    const std::size_t name_end = text.find('"', at + key.size());
    if (text.compare(at + key.size(), 7, "emit_k=") == 0) continue;  // nested
    const std::size_t ts = text.find("\"ts\":", name_end);
    const std::size_t dur = text.find("\"dur\":", name_end);
    const std::int64_t start =
        std::stoll(text.substr(ts + 5, 24)) * 1000 + offset_ns;
    const std::int64_t end =
        start + std::stoll(text.substr(dur + 6, 24)) * 1000;
    int parent = -1;  // innermost containing span (1 us tracer slack)
    for (std::size_t i = 0; i < existing; ++i) {
      const bool contains =
          spans[i].start_ns <= start + 1000 && end <= spans[i].end_ns + 1000;
      if (contains && (parent < 0 || spans[i].start_ns >=
                                         spans[static_cast<std::size_t>(parent)]
                                             .start_ns)) {
        parent = static_cast<int>(i);
      }
    }
    if (parent < 0) continue;
    const SpanRecord& p = spans[static_cast<std::size_t>(parent)];
    spans.push_back({"sweep", start, end, parent, p.op, p.thread});
  }
}

/// Per-operation inclusive and self milliseconds of each span name (summed
/// when a name repeats within the operation).
struct OpLayers {
  std::map<std::string, double> inclusive_ms;
  std::map<std::string, double> self_ms;
};

void add_layers(const std::vector<SpanRecord>& spans,
                std::map<std::int64_t, OpLayers>& out) {
  std::vector<double> child_ms(spans.size(), 0.0);
  const auto ms = [](const SpanRecord& s) {
    return 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
  };
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms(s);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    OpLayers& op = out[spans[i].op];
    op.inclusive_ms[spans[i].name] += ms(spans[i]);
    op.self_ms[spans[i].name] += ms(spans[i]) - child_ms[i];
  }
}

/// Median over operations of one layer's inclusive time (operations that
/// never called the layer are skipped).
double layer_ms(const std::map<std::int64_t, OpLayers>& ops,
                const std::string& name) {
  std::vector<double> v;
  for (const auto& entry : ops) {
    const auto it = entry.second.inclusive_ms.find(name);
    if (it != entry.second.inclusive_ms.end()) v.push_back(it->second);
  }
  return median(std::move(v));
}

// ------------------------------------------------------------ run plumbing

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scale;
  std::string work_dir;
  std::string spans_out;
  bool corrupt_oracle = false;
  std::int64_t start_ns = 0;  // main() entry
};

/// Every per-layer metric, in report order, with its unit. A traced run
/// reports all of them; a layer that does no work in a workload's timed
/// phase reads 0 there (README.md: "predicted flat").
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"io.parse_ms", "ms"},
      {"io.parse_mb_s", "MB/s"},
      {"clique.cliques_ms", "ms"},
      {"clique.cliques", "count"},
      {"clique.ns_per_clique", "ns"},
      {"cpm.join_ms", "ms"},
      {"cpm.join_pairs", "count"},
      {"cpm.join_ns_per_pair", "ns"},
      {"cpm.sweep_ms", "ms"},
      {"cpm.sweep_ns_per_pair", "ns"},
      {"cpm.communities", "count"},
      {"cpm.apply_ms", "ms"},
      {"cpm.apply_us_per_edge", "us"},
      {"cpm.live_cliques", "count"},
      {"cpm.materialize_ms", "ms"},
      {"cpm.materialize_share", "ratio"},
      {"io.snapshot_write_ms", "ms"},
      {"io.snapshot_bytes", "bytes"},
      {"io.snapshot_open_ms", "ms"},
      {"serve.reload_ms", "ms"},
      {"serve.evaluate_us", "us"},
      {"serve.roundtrip_ms_p50", "ms"},
      {"serve.roundtrip_ms_p99", "ms"},
      {"serve.wire_us", "us"},
      {"serve.qps", "1/s"},
      {"trace.overhead_frac", "ratio"},
      {"fail_ratio", "ratio"},
  };
  return units;
}

/// What one workload run produced; main() turns it into the report.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages
  std::vector<double> setup_s;
  std::size_t samples = 0;  // timed operations behind the latency median
  /// Highest percentile with >= 10 samples beyond it, when there is one.
  std::pair<double, double> tail{0.0, 0.0};  // (quantile, ms)
  // End-to-end (untraced run).
  double latency_ms_p50 = 0.0, cpu_ms_per_op = 0.0;
  double peak_rss_mb = 0.0;
  // Per-layer (traced run), keyed by layer_metric_units() names.
  std::map<std::string, double> layers;
  std::map<std::int64_t, OpLayers> op_layers;  // for the self-time table
  std::vector<std::pair<std::string, std::string>> facts;

  void fail(const std::string& message) {
    ++failed;
    if (failures.size() < 5) failures.push_back(message);
  }
  void set_traced_ops(const Phase& untraced, const Phase& traced) {
    samples = traced.ops();
    facts.emplace_back("ops", std::to_string(untraced.ops()) +
                                  " untraced + " +
                                  std::to_string(traced.ops()) + " traced");
  }
  void set_loop_metrics(const Phase& phase) {
    samples = phase.ops();
    latency_ms_p50 = median(phase.latency_ms);
    for (double q : {0.9, 0.99}) {
      if ((1.0 - q) * static_cast<double>(samples) >= 10.0) {
        tail = {q, percentile(phase.latency_ms, q)};
      }
    }
    cpu_ms_per_op = 1e3 * phase.cpu_s / static_cast<double>(phase.ops());
    peak_rss_mb = vm_hwm_mb();
  }
};

Graph topology(const Config& cfg) {
  SynthParams params = cfg.scale == "paper" ? SynthParams::paper_scale()
                                            : SynthParams::test_scale();
  params.seed = kTopologySeed;
  return generate_ecosystem(params).topology.graph;
}

cpm::Options engine_options() {
  cpm::Options options;  // kcc cpm defaults: sweep, k in [2, max], tree on
  options.threads = kEngineThreads;
  return options;
}

/// istream over bytes owned elsewhere, so each parse reads the in-memory
/// edge list without first copying it into a stringstream.
class MemoryStream : private std::streambuf, public std::istream {
 public:
  explicit MemoryStream(const std::string& bytes) : std::istream(this) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

/// Runs set-up kSetupReps times and keeps the last state. All but the last
/// repetition run in forked children that exit once ready, so this
/// process's heap holds one set-up's allocations: repeating set-up in
/// process left update_flap's peak RSS 100 MB apart between runs of one
/// seed. The first repetition is timed from process start (main() entry).
/// Forks happen before this process starts any thread.
template <typename State>
std::unique_ptr<State> repeated_setup(const Config& cfg, Outcome& out) {
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    const std::int64_t start = rep == 0 ? cfg.start_ns : now_ns();
    int fds[2] = {-1, -1};
    require(pipe(fds) == 0, "setup: pipe failed");
    const pid_t pid = fork();
    require(pid >= 0, "setup: fork failed");
    if (pid == 0) {
      close(fds[0]);
      double seconds = -1.0;
      try {
        // Never destroyed: the child exits as soon as set-up is timed.
        [[maybe_unused]] State* state = new State(cfg);
        seconds = 1e-9 * static_cast<double>(now_ns() - start);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "setup: %s\n", e.what());
      }
      const bool sent = write(fds[1], &seconds, sizeof seconds) ==
                        static_cast<ssize_t>(sizeof seconds);
      _exit(sent && seconds >= 0.0 ? 0 : 1);
    }
    close(fds[1]);
    double seconds = -1.0;
    const bool got = read(fds[0], &seconds, sizeof seconds) ==
                     static_cast<ssize_t>(sizeof seconds);
    close(fds[0]);
    int status = 0;
    require(waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0 && got,
            "setup: repetition " + std::to_string(rep) + " failed");
    out.setup_s.push_back(seconds);
  }
  const std::int64_t start = kSetupReps == 1 ? cfg.start_ns : now_ns();
  auto state = std::make_unique<State>(cfg);
  out.setup_s.push_back(1e-9 * static_cast<double>(now_ns() - start));
  out.facts.emplace_back("peak_rss_mb_after_setup",
                         std::to_string(vm_hwm_mb()));
  return state;
}

/// Runs `op(phase)` until the phase has accumulated `seconds` of operation
/// time.
template <typename OpFn>
Phase run_for(double seconds, OpFn&& op) {
  Phase phase;
  while (phase.busy_s < seconds) op(phase);
  return phase;
}

double overhead_frac(const Phase& untraced, const Phase& traced) {
  return median(traced.latency_ms) / median(untraced.latency_ms) - 1.0;
}

// ============================================================ cpm_full

/// Edge list -> communities + tree: parse the in-memory edge list, then run
/// the sweep engine with `kcc cpm` defaults.
class CpmFull {
 public:
  /// Writes the topology as an edge list in a line order and endpoint
  /// order drawn from the seed. AS labels stay the generator's (node id +
  /// 1): a random relabeling changes memory locality, so it would measure
  /// the labels as much as the code.
  explicit CpmFull(const Config& cfg) {
    const Graph g = topology(cfg);
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 3);
    std::vector<std::pair<NodeId, NodeId>> edges = g.edges();
    rng.shuffle(edges);
    std::ostringstream text;
    for (const auto& [u, v] : edges) {
      const bool flip = rng.next_bool(0.5);
      text << (flip ? v : u) + 1 << ' ' << (flip ? u : v) + 1 << '\n';
    }
    edge_text_ = text.str();
  }

  /// The untraced operation: read_edge_list + cpm::Engine::run.
  cpm::Result run_engine() const {
    MemoryStream in(edge_text_);
    const LabeledGraph lg = read_edge_list(in);
    return cpm::Engine(engine_options()).run(lg.graph);
  }

  /// The traced operation: the same work as run_engine(), decomposed into
  /// the public calls the sweep engine makes, one span each. Must stay
  /// digest-identical to run_engine() (checked every traced run).
  cpm::Result run_decomposed(SpanLog* log, std::int64_t op) {
    const cpm::Options options = engine_options();
    LabeledGraph lg;
    {
      Span span(log, "parse", op);
      MemoryStream in(edge_text_);
      lg = read_edge_list(in);
    }
    const Graph& g = lg.graph;
    ThreadPool pool(options.threads);
    std::vector<NodeSet> cliques;
    {
      Span span(log, "cliques", op);
      clique::Options copt;
      copt.min_size = options.min_clique_size;
      copt.backend = options.clique_backend;
      copt.bitset_max_universe = options.bitset_max_universe;
      cliques = clique::Enumerator(g, copt).collect(pool);
    }
    cliques_ = cliques.size();
    std::vector<CliqueOverlap> overlaps;
    {
      Span span(log, "join", op);
      overlaps =
          compute_clique_overlaps_unsorted(cliques, g.num_nodes(), 2, pool);
    }
    pairs_ = overlaps.size();
    SweepCpmResult sweep;
    {
      Span span(log, "sweep", op);
      sweep = run_sweep_cpm_prejoined(g, std::move(cliques),
                                      std::move(overlaps),
                                      options.cpm_options());
    }
    cpm::Result result;
    result.cpm = std::move(sweep.cpm);
    if (options.build_tree && result.cpm.max_k >= result.cpm.min_k) {
      result.tree = std::move(sweep.tree);
      result.has_tree = true;
    }
    result.engine_name = "sweep";
    result.exactness = cpm::Exactness::kExact;
    return result;
  }

  /// Oracle: the per_k engine (the paper's LP-CPM structure) on the same
  /// edge list.
  std::uint64_t oracle_digest() const {
    MemoryStream in(edge_text_);
    const LabeledGraph lg = read_edge_list(in);
    cpm::Options options = engine_options();
    options.engine = "per_k";
    return cpm::canonical_digest(cpm::Engine(options).run(lg.graph));
  }

  const std::string& edge_text() const { return edge_text_; }
  std::size_t cliques() const { return cliques_; }
  std::size_t pairs() const { return pairs_; }

 private:
  std::string edge_text_;
  std::size_t cliques_ = 0;
  std::size_t pairs_ = 0;
};

void run_cpm_full(const Config& cfg, Outcome& out, SpanLog& log) {
  const auto setup = repeated_setup<CpmFull>(cfg, out);
  CpmFull& w = *setup;
  std::vector<std::uint64_t> digests;
  std::size_t communities = 0;
  // The in-loop digest allocates less than an operation does, so it
  // leaves peak_rss_mb unchanged (measured: identical VmHWM with its
  // memory excluded).
  const auto record = [&](const cpm::Result& result) {
    digests.push_back(cpm::canonical_digest(result));
    communities = result.cpm.total_communities();
  };
  const auto untraced_op = [&](Phase& phase) {
    const OpTimer timer;
    const cpm::Result result = w.run_engine();
    timer.stop(phase);
    record(result);
  };

  Phase warmup;
  for (std::size_t i = 0; i < kWarmupOps; ++i) untraced_op(warmup);

  if (!cfg.trace) {
    out.set_loop_metrics(run_for(cfg.seconds, untraced_op));
  } else {
    const Phase untraced = run_for(cfg.seconds / 2, untraced_op);
    std::int64_t op = 0;
    const Phase traced = run_for(cfg.seconds / 2, [&](Phase& phase) {
      const OpTimer timer;
      cpm::Result result;
      {
        Span span(&log, "op", op);
        result = w.run_decomposed(&log, op);
      }
      timer.stop(phase);
      ++op;
      record(result);
    });
    const std::uint64_t engine_digest = cpm::canonical_digest(w.run_engine());
    ++out.attempted;
    if (digests.back() != engine_digest) {
      out.fail("cpm_full: decomposed call chain digest differs from "
               "Engine::run");
    }
    add_layers(log.spans(), out.op_layers);
    const double parse = layer_ms(out.op_layers, "parse");
    const double cliques = layer_ms(out.op_layers, "cliques");
    const double join = layer_ms(out.op_layers, "join");
    const double sweep = layer_ms(out.op_layers, "sweep");
    const double mb =
        static_cast<double>(w.edge_text().size()) / (1024.0 * 1024.0);
    const auto nc = static_cast<double>(w.cliques());
    const auto np = static_cast<double>(w.pairs());
    out.layers = {
        {"io.parse_ms", parse},
        {"io.parse_mb_s", mb / (1e-3 * parse)},
        {"clique.cliques_ms", cliques},
        {"clique.cliques", nc},
        {"clique.ns_per_clique", 1e6 * cliques / nc},
        {"cpm.join_ms", join},
        {"cpm.join_pairs", np},
        {"cpm.join_ns_per_pair", 1e6 * join / np},
        {"cpm.sweep_ms", sweep},
        {"cpm.sweep_ns_per_pair", 1e6 * sweep / np},
        {"cpm.communities", static_cast<double>(communities)},
        {"trace.overhead_frac", overhead_frac(untraced, traced)},
    };
    out.set_traced_ops(untraced, traced);
  }

  std::uint64_t oracle = w.oracle_digest();
  if (cfg.corrupt_oracle) oracle ^= 1;
  out.attempted += digests.size();
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (digests[i] != oracle) {
      out.fail("cpm_full: op " + std::to_string(i) +
               " digest differs from the per_k oracle");
    }
  }
  out.facts.emplace_back("edge_list_bytes",
                         std::to_string(w.edge_text().size()));
  out.facts.emplace_back("communities", std::to_string(communities));
}

// ============================================================ update_flap

using Edge = std::pair<NodeId, NodeId>;

/// Draws one valid peripheral-flap batch against `edges` (the churn model
/// of bench/perf_incr.cpp): ops/2 removes sampled from present edges, the
/// rest adds rejection-sampled from absent pairs, every pair having an
/// endpoint of degree <= kFlapDegreeMax on the pre-batch graph.
cpm::EdgeBatch draw_flap_batch(const std::vector<Edge>& edges,
                               std::size_t num_nodes, std::size_t ops,
                               Rng& rng) {
  std::vector<Edge> sorted = edges;
  for (Edge& e : sorted) {
    if (e.first > e.second) std::swap(e.first, e.second);
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> degree(num_nodes, 0);
  for (const Edge& e : sorted) {
    ++degree[e.first];
    ++degree[e.second];
  }
  const auto flappable = [&](NodeId u, NodeId v) {
    return std::min(degree[u], degree[v]) <= kFlapDegreeMax;
  };
  std::vector<Edge> pool;
  for (const Edge& e : sorted) {
    if (flappable(e.first, e.second)) pool.push_back(e);
  }
  require(!pool.empty(), "update_flap: no flap-eligible edges to remove");
  cpm::EdgeBatch batch;
  const std::size_t removes = std::min(ops / 2, pool.size());
  batch.remove = rng.sample_without_replacement(pool, removes);
  while (batch.add.size() < ops - removes) {
    const auto u = static_cast<NodeId>(rng.next_below(num_nodes));
    const auto v = static_cast<NodeId>(rng.next_below(num_nodes));
    if (u == v || !flappable(u, v)) continue;
    const Edge e{std::min(u, v), std::max(u, v)};
    if (std::binary_search(sorted.begin(), sorted.end(), e)) continue;
    if (std::find(batch.add.begin(), batch.add.end(), e) != batch.add.end()) {
      continue;
    }
    batch.add.push_back(e);
  }
  return batch;
}

/// Applies a batch to an edge vector (removes first), mirroring
/// IncrementalCpm::apply on the edge set.
void apply_to_edges(std::vector<Edge>& edges, const cpm::EdgeBatch& batch) {
  const auto canon = [](Edge e) {
    if (e.first > e.second) std::swap(e.first, e.second);
    return e;
  };
  std::vector<Edge> removed;
  for (const Edge& e : batch.remove) removed.push_back(canon(e));
  std::sort(removed.begin(), removed.end());
  std::erase_if(edges, [&](const Edge& e) {
    return std::binary_search(removed.begin(), removed.end(), canon(e));
  });
  edges.insert(edges.end(), batch.add.begin(), batch.add.end());
}

/// Churn batch -> queryable snapshot, the `kcc update` + serve reload path.
class UpdateFlap {
 public:
  explicit UpdateFlap(const Config& cfg)
      : snapshot_path_(cfg.work_dir + "/flap.snap") {
    const Graph g = topology(cfg);
    num_nodes_ = g.num_nodes();
    base_edges_ = g.edges();
    // The whole batch sequence is drawn here, by simulating it on an edge
    // set, so the timed phase only receives generated inputs. A flap takes
    // links down and brings them back: every drawn batch is followed by its
    // inverse, so the graph returns to the base after each pair and every
    // operation sees the same state distribution, however many operations
    // a run completes. (Unpaired batches drift: each 1% batch adds ~1% of
    // maximal cliques, so a faster build would be timed on a larger graph.)
    std::vector<Edge> edges = base_edges_;
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
    const auto ops = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(g.num_edges()) *
                                    kFlapChurn));
    const std::size_t count = kWarmupOps + timed_ops(cfg);
    while (batches_.size() < count) {
      batches_.push_back(draw_flap_batch(edges, num_nodes_, ops, rng));
      apply_to_edges(edges, batches_.back());
      batches_.push_back(batches_.back().inverse());
      apply_to_edges(edges, batches_.back());
    }
    state_ = std::make_unique<cpm::IncrementalCpm>(g, engine_options());
    const cpm::Result first = state_->result();
    snapshot::write_snapshot_file(snapshot_path_, first);
    serve::ServerOptions options;
    options.socket_path = cfg.work_dir + "/flap.sock";
    server_ = std::make_unique<serve::Server>(snapshot_path_, options);
    server_->start();
    client_ = std::make_unique<serve::Client>(options.socket_path);
  }

  /// Timed batches per run: even, so the run ends on a restored graph.
  static std::size_t timed_ops(const Config& cfg) {
    const double pairs = kFlapOpsPerSecond * cfg.seconds / 2;
    return 2 * std::max<std::size_t>(1, static_cast<std::size_t>(pairs + 0.5));
  }

  /// One operation: apply -> materialize -> snapshot write (tmp + rename,
  /// as `kcc update` does) -> reload acknowledged by the live server. The
  /// traced run also times opening the written snapshot, the mapping step
  /// the reload performs inside the server.
  void op(SpanLog* log, std::int64_t id, Phase& phase, Outcome& out) {
    const cpm::EdgeBatch& batch = batches_[next_++];
    const OpTimer timer;
    cpm::Result result;
    serve::Status status = serve::Status::kOk;
    {
      Span op_span(log, "op", id);
      {
        Span span(log, "apply", id);
        state_->apply(batch);
      }
      {
        Span span(log, "materialize", id);
        result = state_->result();
      }
      {
        Span span(log, "snapshot_write", id);
        const std::string tmp = snapshot_path_ + ".tmp";
        snapshot::write_snapshot_file(tmp, result);
        std::filesystem::rename(tmp, snapshot_path_);
      }
      {
        Span span(log, "reload", id);
        status = client_->request_reload();
      }
      if (log != nullptr) {
        Span span(log, "snapshot_open", id);
        const snapshot::SnapshotView view(snapshot_path_);
      }
    }
    timer.stop(phase);
    ++out.attempted;
    batch_size_ = batch.size();
    communities_ = result.cpm.total_communities();
    const std::uint64_t served = client_->info().num_communities;
    if (status != serve::Status::kOk || served != communities_) {
      out.fail("update_flap: op " + std::to_string(id) + " reload status " +
               std::to_string(static_cast<int>(status)) + ", server reports " +
               std::to_string(served) + " communities, expected " +
               std::to_string(communities_));
    }
  }

  /// Final check: the materialized result equals a from-scratch sweep on
  /// the mutated graph (clique order canonicalised).
  void check_final(bool corrupt, Outcome& out) const {
    std::vector<Edge> edges = base_edges_;
    for (std::size_t i = 0; i < next_; ++i) apply_to_edges(edges, batches_[i]);
    cpm::Result fresh =
        cpm::Engine(engine_options()).run(Graph::from_edges(num_nodes_, edges));
    cpm::canonicalise_clique_order(fresh);
    std::uint64_t expected = cpm::canonical_digest(fresh);
    if (corrupt) expected ^= 1;
    if (cpm::canonical_digest(state_->result()) != expected) {
      out.fail("update_flap: digest after " + std::to_string(next_) +
               " batches differs from a from-scratch sweep");
    }
  }

  /// Overlap pairs the sweep tail receives from materialize: the pairs of
  /// the current clique table (counted once, after the timed phase).
  std::size_t count_pairs() const {
    const cpm::Result result = state_->result();
    ThreadPool pool(kEngineThreads);
    return compute_clique_overlaps_unsorted(result.cpm.cliques, num_nodes_, 2,
                                            pool)
        .size();
  }

  const cpm::IncrementalCpm& state() const { return *state_; }
  const std::string& snapshot_path() const { return snapshot_path_; }
  std::size_t batch_size() const { return batch_size_; }
  std::size_t communities() const { return communities_; }
  std::size_t applied() const { return next_; }

 private:
  std::string snapshot_path_;
  std::size_t num_nodes_ = 0;
  std::vector<Edge> base_edges_;
  std::vector<cpm::EdgeBatch> batches_;
  std::size_t next_ = 0;
  std::unique_ptr<cpm::IncrementalCpm> state_;
  // Declared server first so the client disconnects before shutdown.
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Client> client_;
  std::size_t batch_size_ = 0;
  std::size_t communities_ = 0;
};

void run_update_flap(const Config& cfg, Outcome& out, SpanLog& log) {
  const auto setup = repeated_setup<UpdateFlap>(cfg, out);
  UpdateFlap& w = *setup;
  std::int64_t next_id = 0;
  const auto run_ops = [&](std::size_t n, SpanLog* span_log) {
    Phase phase;
    for (std::size_t i = 0; i < n; ++i) w.op(span_log, next_id++, phase, out);
    return phase;
  };
  const std::size_t timed = UpdateFlap::timed_ops(cfg);

  run_ops(kWarmupOps, nullptr);
  if (!cfg.trace) {
    out.set_loop_metrics(run_ops(timed, nullptr));
  } else {
    const Phase untraced = run_ops(timed / 2, nullptr);
    obs::Tracer& tracer = obs::Tracer::instance();
    const std::int64_t offset_ns =
        now_ns() - static_cast<std::int64_t>(tracer.now_us()) * 1000;
    tracer.clear();
    tracer.set_enabled(true);
    const Phase traced = run_ops(timed - timed / 2, &log);
    tracer.set_enabled(false);
    import_sweep_spans(log, offset_ns);
    add_layers(log.spans(), out.op_layers);

    std::vector<double> shares;
    for (const auto& entry : out.op_layers) {
      const auto& inc = entry.second.inclusive_ms;
      if (inc.count("op") != 0 && inc.count("materialize") != 0) {
        shares.push_back(inc.at("materialize") / inc.at("op"));
      }
    }
    const double apply = layer_ms(out.op_layers, "apply");
    const double sweep = layer_ms(out.op_layers, "sweep");
    const auto pairs = static_cast<double>(w.count_pairs());
    out.layers = {
        {"cpm.sweep_ms", sweep},
        {"cpm.sweep_ns_per_pair", 1e6 * sweep / pairs},
        {"cpm.communities", static_cast<double>(w.communities())},
        {"cpm.apply_ms", apply},
        {"cpm.apply_us_per_edge",
         1e3 * apply / static_cast<double>(w.batch_size())},
        {"cpm.live_cliques", static_cast<double>(w.state().num_cliques())},
        {"cpm.materialize_ms", layer_ms(out.op_layers, "materialize")},
        {"cpm.materialize_share", median(shares)},
        {"io.snapshot_write_ms", layer_ms(out.op_layers, "snapshot_write")},
        {"io.snapshot_bytes",
         static_cast<double>(std::filesystem::file_size(w.snapshot_path()))},
        {"io.snapshot_open_ms", layer_ms(out.op_layers, "snapshot_open")},
        {"serve.reload_ms", layer_ms(out.op_layers, "reload")},
        {"trace.overhead_frac", overhead_frac(untraced, traced)},
    };
    out.set_traced_ops(untraced, traced);
  }
  w.check_final(cfg.corrupt_oracle, out);
  out.facts.emplace_back("batch_ops", std::to_string(w.batch_size()));
  out.facts.emplace_back("batches_applied", std::to_string(w.applied()));
  out.facts.emplace_back("communities", std::to_string(w.communities()));
}

// ============================================================ serve_mix

/// One query of the mix, kept decoded so the oracle can answer it.
struct Query {
  serve::Op op = serve::Op::kMembership;
  std::uint32_t a = 0, b = 0, c = 0, d = 0;
};

/// Builds the snapshot `kcc serve` would be given — sweep engine over the
/// topology, then write_snapshot_file — in a child process, as the
/// separate `kcc cpm` run that produces it would. The serving process's
/// peak RSS then holds only what serving needs. Called while this process
/// has no threads, so fork() is safe.
void build_snapshot_in_child(const Config& cfg, const std::string& path) {
  const pid_t pid = fork();
  require(pid >= 0, "serve_mix: fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      snapshot::write_snapshot_file(
          path, cpm::Engine(engine_options()).run(topology(cfg)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve_mix: snapshot build: %s\n", e.what());
      code = 1;
    }
    _exit(code);
  }
  int status = 0;
  require(waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
              WEXITSTATUS(status) == 0,
          "serve_mix: snapshot build failed");
}

/// Query -> answer over a live `kcc serve` daemon: a closed loop of
/// kServeClients connections, each waiting for its answer before sending
/// the next query.
class ServeMix {
 public:
  explicit ServeMix(const Config& cfg) {
    const std::string snapshot_path = cfg.work_dir + "/serve.snap";
    build_snapshot_in_child(cfg, snapshot_path);
    serve::ServerOptions options;
    options.socket_path = cfg.work_dir + "/serve.sock";
    server_ = std::make_unique<serve::Server>(snapshot_path, options);
    server_->start();
    view_ = server_->view_ptr();
    for (std::size_t c = 0; c < kServeClients; ++c) {
      clients_.emplace_back(options.socket_path);
    }
  }

  /// The perf_serve mix: membership 40%, community 25%, ancestry 15%,
  /// lca 10%, overlap 10%, with arguments valid for the snapshot.
  Query draw(Rng& rng) const {
    const auto min_k = static_cast<std::uint32_t>(view_->min_k());
    const auto max_k = static_cast<std::uint32_t>(view_->max_k());
    const auto community = [&](std::uint32_t& k, std::uint32_t& id) {
      k = min_k + static_cast<std::uint32_t>(rng.next_below(max_k - min_k + 1));
      id = static_cast<std::uint32_t>(
          rng.next_below(view_->community_count(k)));
    };
    const auto node = [&] {
      return static_cast<std::uint32_t>(rng.next_below(view_->num_nodes()));
    };
    Query q;
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 40) {
      q.op = serve::Op::kMembership;
      q.a = node();
    } else if (roll < 65) {
      q.op = serve::Op::kCommunity;
      community(q.a, q.b);
    } else if (roll < 80) {
      q.op = serve::Op::kAncestry;
      community(q.a, q.b);
    } else if (roll < 90) {
      q.op = serve::Op::kLca;
      community(q.a, q.b);
      community(q.c, q.d);
    } else {
      q.op = serve::Op::kOverlap;
      q.a = node();
      q.b = node();
    }
    return q;
  }

  static std::vector<std::uint8_t> encode(const Query& q) {
    switch (q.op) {
      case serve::Op::kMembership:
        return serve::encode_membership(q.a, 0);
      case serve::Op::kCommunity:
        return serve::encode_community(q.a, q.b);
      case serve::Op::kAncestry:
        return serve::encode_ancestry(q.a, q.b);
      case serve::Op::kLca:
        return serve::encode_lca(q.a, q.b, q.c, q.d);
      default:
        return serve::encode_overlap(q.a, q.b);
    }
  }

  const snapshot::SnapshotView& view() const { return *view_; }
  serve::Client& client(std::size_t c) { return clients_[c]; }

 private:
  // Declared server first so clients disconnect before shutdown.
  std::unique_ptr<serve::Server> server_;
  std::shared_ptr<const snapshot::SnapshotView> view_;  // pinned at start
  std::vector<serve::Client> clients_;
};

/// Expected response bytes for a query, computed from the in-memory
/// cpm::Result (community lists, tree parents) rather than the snapshot.
class ServeOracle {
 public:
  explicit ServeOracle(const cpm::Result& result) : result_(result) {
    const CpmResult& cpm = result.cpm;
    for (std::size_t k = cpm.min_k; k <= cpm.max_k; ++k) {
      for (const Community& c : cpm.at(k).communities) {
        for (NodeId v : c.nodes) {
          if (v >= postings_.size()) postings_.resize(v + 1);
          postings_[v].push_back({static_cast<std::uint32_t>(k), c.id});
        }
      }
    }
  }

  std::vector<std::uint8_t> answer(const Query& q) const {
    std::vector<std::uint8_t> r;
    serve::put_u8(r, static_cast<std::uint8_t>(serve::Status::kOk));
    switch (q.op) {
      case serve::Op::kMembership: {
        const auto& p = postings(q.a);
        serve::put_u32(r, static_cast<std::uint32_t>(p.size()));
        for (const auto& [k, id] : p) {
          serve::put_u32(r, k);
          serve::put_u32(r, id);
        }
        break;
      }
      case serve::Op::kCommunity: {
        const NodeSet& nodes = result_.cpm.at(q.a).communities[q.b].nodes;
        serve::put_u32(r, static_cast<std::uint32_t>(nodes.size()));
        for (NodeId v : nodes) serve::put_u32(r, v);
        break;
      }
      case serve::Op::kAncestry: {
        const auto chain = ancestors(q.a, q.b);
        serve::put_u32(r, static_cast<std::uint32_t>(chain.size()));
        for (const auto& [k, id] : chain) {
          serve::put_u32(r, k);
          serve::put_u32(r, id);
          const NodeSet& nodes = result_.cpm.at(k).communities[id].nodes;
          serve::put_u32(r, static_cast<std::uint32_t>(nodes.size()));
        }
        break;
      }
      case serve::Op::kLca: {
        // Deepest level at which the two ancestor chains agree.
        const auto x = ancestors(q.a, q.b);
        const auto y = ancestors(q.c, q.d);
        std::pair<std::uint32_t, std::uint32_t> found{0, 0};
        bool any = false;
        for (const auto& p : x) {
          if (std::find(y.begin(), y.end(), p) != y.end()) {
            found = p;
            any = true;
            break;
          }
        }
        serve::put_u8(r, any ? 1 : 0);
        if (any) {
          serve::put_u32(r, found.first);
          serve::put_u32(r, found.second);
        }
        break;
      }
      default: {
        // Deepest shared k, the smallest shared id there, and how many
        // communities the two nodes share at that k.
        const auto& pu = postings(q.a);
        const auto& pv = postings(q.b);
        std::uint32_t max_k = 0, witness = 0, count = 0;
        for (const auto& p : pu) {
          if (std::find(pv.begin(), pv.end(), p) == pv.end()) continue;
          if (p.first > max_k) {
            max_k = p.first;
            witness = p.second;
            count = 0;
          }
          if (p.first == max_k) ++count;
        }
        serve::put_u32(r, max_k);
        serve::put_u32(r, witness);
        serve::put_u32(r, count);
      }
    }
    return r;
  }

 private:
  using Posting = std::pair<std::uint32_t, std::uint32_t>;  // (k, id)

  const std::vector<Posting>& postings(std::uint32_t node) const {
    static const std::vector<Posting> none;
    return node < postings_.size() ? postings_[node] : none;
  }

  /// (k, id) and its tree parents down to min_k, self first.
  std::vector<Posting> ancestors(std::uint32_t k, std::uint32_t id) const {
    std::vector<Posting> chain;
    const auto& nodes = result_.tree.nodes();
    for (int i = result_.tree.index_of(k, id); i >= 0;
         i = nodes[static_cast<std::size_t>(i)].parent) {
      const TreeNode& n = nodes[static_cast<std::size_t>(i)];
      chain.emplace_back(static_cast<std::uint32_t>(n.k), n.community_id);
    }
    return chain;
  }

  const cpm::Result& result_;
  std::vector<std::vector<Posting>> postings_;
};

/// Round-trip latencies in 10 ns bins up to 2 ms, plus the exact value of
/// any slower one. Memory is constant, so the benchmark's own bookkeeping
/// does not grow with the number of queries answered (peak_rss_mb would
/// otherwise rise with qps).
class LatencyHistogram {
 public:
  void add(std::int64_t ns) {
    if (ns >= 0 && ns < kBinNs * static_cast<std::int64_t>(kBins)) {
      ++bins_[static_cast<std::size_t>(ns / kBinNs)];
    } else {
      slow_ns_.push_back(ns);
    }
    ++count_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBins; ++i) bins_[i] += other.bins_[i];
    slow_ns_.insert(slow_ns_.end(), other.slow_ns_.begin(),
                    other.slow_ns_.end());
    count_ += other.count_;
  }
  std::uint64_t count() const { return count_; }

  /// Quantile q in ms: rank q * (count - 1), linear within its bin.
  double quantile_ms(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    double below = 0.0;
    for (std::size_t i = 0; i < kBins; ++i) {
      const auto n = static_cast<double>(bins_[i]);
      if (below + n > rank) {
        const double ns =
            static_cast<double>(i * kBinNs) +
            (rank - below + 0.5) / n * static_cast<double>(kBinNs);
        return 1e-6 * ns;
      }
      below += n;
    }
    std::vector<std::int64_t> slow = slow_ns_;
    std::sort(slow.begin(), slow.end());
    const auto at =
        std::min(slow.size() - 1, static_cast<std::size_t>(rank - below));
    return 1e-6 * static_cast<double>(slow[at]);
  }

 private:
  static constexpr std::int64_t kBinNs = 10;
  static constexpr std::size_t kBins = 200000;
  std::vector<std::uint32_t> bins_ = std::vector<std::uint32_t>(kBins, 0);
  std::vector<std::int64_t> slow_ns_;
  std::uint64_t count_ = 0;
};

/// Response hashes folded into one 64-bit hash per block of kBlock
/// answers, in draw order: constant memory per block, and a wrong answer
/// fails its block.
struct BlockHashes {
  static constexpr std::uint64_t kBlock = 64;
  void add(std::uint64_t hash) {
    current = (current ^ hash) * 0x100000001b3ULL;
    if (++answered % kBlock == 0) {
      blocks.push_back(current);
      current = 0;
    }
  }
  void finish() {
    if (answered % kBlock != 0) blocks.push_back(current);
  }
  std::vector<std::uint64_t> blocks;
  std::uint64_t current = 0;
  std::uint64_t answered = 0;
};

/// What one connection recorded across phases.
struct ConnectionLog {
  explicit ConnectionLog(int thread) : spans(thread) {}
  BlockHashes hashes;         // every answer, warm-up included
  LatencyHistogram untraced;  // timed untraced round trips
  std::uint64_t timed = 0;    // timed queries, both phases
  std::string error;
  SpanLog spans;  // traced phase
};

std::uint64_t client_seed(std::uint64_t seed, std::size_t client) {
  return seed * 0x9e3779b97f4a7c15ULL + 101 + client;
}

/// Wall and process CPU time of one timed serve phase, from the moment every
/// connection is warmed up and ready until the last one has stopped.
struct ServeTimes {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Drives all connections for one timed phase of `seconds` wall time. Each
/// connection keeps drawing from its own Rng across phases; the first phase
/// runs the warm-up, which stays outside the returned times.
ServeTimes serve_phase(ServeMix& w, std::vector<Rng>& rngs,
                   std::vector<ConnectionLog>& logs, double seconds,
                   bool warmup, bool traced) {
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::int64_t> deadline{0};
  std::vector<std::int64_t> end_ns(kServeClients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      ConnectionLog& log = logs[c];
      serve::Client& client = w.client(c);
      std::vector<std::uint8_t> local;
      bool counted_ready = false;
      try {
        for (std::size_t i = 0; warmup && i < kServeWarmupQueries; ++i) {
          client.send_request(ServeMix::encode(w.draw(rngs[c])));
          log.hashes.add(fnv1a(client.read_response()));
        }
        counted_ready = true;
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const std::int64_t stop = deadline.load();
        SpanLog* spans = traced ? &log.spans : nullptr;
        std::int64_t id = static_cast<std::int64_t>(c << 40) +
                          static_cast<std::int64_t>(log.timed);
        while (now_ns() < stop) {
          const auto request = ServeMix::encode(w.draw(rngs[c]));
          const std::int64_t start = now_ns();
          std::vector<std::uint8_t> response;
          {
            Span op(spans, "op", id);
            if (traced) {
              Span span(spans, "evaluate", id);
              serve::evaluate(w.view(), request.data(), request.size(), local,
                              false, false);
            }
            Span span(spans, "roundtrip", id);
            client.send_request(request);
            response = client.read_response();
          }
          if (!traced) log.untraced.add(now_ns() - start);
          log.hashes.add(fnv1a(response));
          ++log.timed;
          ++id;
        }
      } catch (const std::exception& e) {
        log.error = e.what();
        if (!counted_ready) ready.fetch_add(1);
      }
      end_ns[c] = now_ns();
    });
  }
  while (ready.load() < kServeClients) std::this_thread::yield();
  const double cpu0 = cpu_seconds();
  const std::int64_t start = now_ns();
  deadline.store(start + static_cast<std::int64_t>(seconds * 1e9));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const std::int64_t end = *std::max_element(end_ns.begin(), end_ns.end());
  return {1e-9 * static_cast<double>(end - start), cpu_seconds() - cpu0};
}

void run_serve_mix(const Config& cfg, Outcome& out, SpanLog& merged) {
  const auto setup = repeated_setup<ServeMix>(cfg, out);
  ServeMix& w = *setup;
  std::vector<Rng> rngs;
  std::vector<ConnectionLog> logs;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    rngs.emplace_back(client_seed(cfg.seed, c));
    logs.emplace_back(static_cast<int>(c));
  }
  const auto untraced = [&] {
    LatencyHistogram all;
    for (const ConnectionLog& log : logs) all.merge(log.untraced);
    return all;
  };

  if (!cfg.trace) {
    const ServeTimes times =
        serve_phase(w, rngs, logs, cfg.seconds, true, false);
    const LatencyHistogram all = untraced();
    const auto n = static_cast<double>(all.count());
    out.samples = all.count();
    out.latency_ms_p50 = all.quantile_ms(0.5);
    for (double q : {0.9, 0.99, 0.999, 0.9999}) {
      if ((1.0 - q) * n >= 10.0) out.tail = {q, all.quantile_ms(q)};
    }
    out.cpu_ms_per_op = 1e3 * times.cpu_s / n;
    out.peak_rss_mb = vm_hwm_mb();
    out.facts.emplace_back("qps", std::to_string(n / times.wall_s));
  } else {
    const ServeTimes times =
        serve_phase(w, rngs, logs, cfg.seconds / 2, true, false);
    const LatencyHistogram all = untraced();
    const double untraced_p50 = all.quantile_ms(0.5);
    const double qps = static_cast<double>(all.count()) / times.wall_s;
    std::vector<std::uint64_t> mark;
    for (const ConnectionLog& log : logs) mark.push_back(log.timed);
    serve_phase(w, rngs, logs, cfg.seconds / 2, false, true);
    std::vector<double> traced_ms, roundtrip_ms, evaluate_us, wire_us;
    for (std::size_t c = 0; c < kServeClients; ++c) {
      std::map<std::int64_t, OpLayers> ops;
      add_layers(logs[c].spans.spans(), ops);
      for (const auto& entry : ops) {
        const auto& inc = entry.second.inclusive_ms;
        const double rt = inc.at("roundtrip");
        const double ev = inc.at("evaluate");
        traced_ms.push_back(inc.at("op"));
        roundtrip_ms.push_back(rt);
        evaluate_us.push_back(1e3 * ev);
        wire_us.push_back(1e3 * (rt - ev));
      }
      if (c == 0) out.op_layers = std::move(ops);
    }
    out.layers = {
        {"serve.evaluate_us", median(evaluate_us)},
        {"serve.roundtrip_ms_p50", median(roundtrip_ms)},
        {"serve.roundtrip_ms_p99", percentile(roundtrip_ms, 0.99)},
        {"serve.wire_us", median(wire_us)},
        {"serve.qps", qps},
        {"trace.overhead_frac", median(traced_ms) / untraced_p50 - 1.0},
    };
    out.samples = roundtrip_ms.size();
    // Write a bounded prefix of each connection's spans.
    for (std::size_t c = 0; c < kServeClients; ++c) {
      const auto& spans = logs[c].spans.spans();
      std::size_t keep = 0;
      while (keep < spans.size() &&
             (spans[keep].op & ((std::int64_t{1} << 40) - 1)) <
                 static_cast<std::int64_t>(mark[c] + kMaxWrittenServeOps)) {
        ++keep;
      }
      const auto base = static_cast<int>(merged.spans().size());
      for (std::size_t i = 0; i < keep; ++i) {
        SpanRecord s = spans[i];
        if (s.parent >= 0) s.parent += base;
        merged.spans().push_back(s);
      }
    }
  }

  // Checks: recompute the result in memory, re-draw every connection's
  // query sequence and compare each block of answers with the hash of the
  // oracle's expected bytes.
  const cpm::Result result = cpm::Engine(engine_options()).run(topology(cfg));
  const ServeOracle oracle(result);
  for (std::size_t c = 0; c < kServeClients; ++c) {
    Rng rng(client_seed(cfg.seed, c));
    ConnectionLog& log = logs[c];
    log.hashes.finish();
    BlockHashes expected;
    for (std::uint64_t i = 0; i < log.hashes.answered; ++i) {
      std::uint64_t hash = fnv1a(oracle.answer(w.draw(rng)));
      if (cfg.corrupt_oracle && c == 0 && i == 0) hash ^= 1;
      expected.add(hash);
    }
    expected.finish();
    out.attempted += log.hashes.answered;
    for (std::size_t b = 0; b < expected.blocks.size(); ++b) {
      if (log.hashes.blocks[b] != expected.blocks[b]) {
        out.fail("serve_mix: connection " + std::to_string(c) + " queries " +
                 std::to_string(b * BlockHashes::kBlock) + ".. (block of " +
                 std::to_string(BlockHashes::kBlock) +
                 ") differ from the oracle");
      }
    }
    if (!log.error.empty()) {
      ++out.attempted;
      out.fail("serve_mix: connection " + std::to_string(c) + ": " + log.error);
    }
  }
  out.facts.emplace_back("queries", std::to_string(out.attempted));
  out.facts.emplace_back("communities",
                         std::to_string(result.cpm.total_communities()));
}

// ============================================================ report

void write_spans(const Config& cfg, const std::vector<SpanRecord>& spans) {
  std::ofstream f(cfg.spans_out);
  require(static_cast<bool>(f),
          "cannot write spans to '" + cfg.spans_out + "'");
  f << "{\"workload\":\"" << cfg.workload << "\",\"seed\":" << cfg.seed
    << ",\"scale\":\"" << cfg.scale
    << "\",\"engine_threads\":" << kEngineThreads
    << ",\"serve_clients\":" << kServeClients << ",\"git_sha\":\""
    << KCC_BUILD_GIT_SHA << "\",\"spans\":" << spans.size() << "}\n";
  for (const SpanRecord& s : spans) {
    f << "{\"name\":\"" << s.name << "\",\"op\":" << s.op << ",\"thread\":"
      << s.thread << ",\"parent\":" << s.parent
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << "}\n";
  }
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(int argc, char** argv) {
  Config cfg;
  cfg.start_ns = now_ns();
  CliArgs args(argc, argv,
               {"workload", "seed", "seconds", "trace", "scale", "work-dir",
                "spans-out", "corrupt-oracle"});
  cfg.workload = args.get_string("workload", "");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", -1));
  cfg.seconds = args.get_double("seconds", 0.0);
  cfg.trace = args.get_int("trace", 0) != 0;
  cfg.scale = args.get_string("scale", "paper");
  cfg.work_dir = args.get_string("work-dir", "");
  cfg.spans_out = args.get_string("spans-out", "");
  cfg.corrupt_oracle = args.get_bool("corrupt-oracle", false);
  require(cfg.workload == "cpm_full" || cfg.workload == "update_flap" ||
              cfg.workload == "serve_mix",
          "--workload must be cpm_full, update_flap or serve_mix");
  require(args.get_int("seed", -1) >= 0,
          "--seed must be a non-negative integer");
  require(cfg.seconds > 0.0, "--seconds must be positive");
  require(cfg.scale == "paper" || cfg.scale == "test",
          "--scale must be paper or test");
  require(!cfg.work_dir.empty(), "--work-dir is required");
  std::filesystem::create_directories(cfg.work_dir);

  Outcome out;
  SpanLog spans(0);
  if (cfg.workload == "cpm_full") {
    run_cpm_full(cfg, out, spans);
  } else if (cfg.workload == "update_flap") {
    run_update_flap(cfg, out, spans);
  } else {
    run_serve_mix(cfg, out, spans);
  }
  if (cfg.trace && !cfg.spans_out.empty()) write_spans(cfg, spans.spans());

  const double fail_ratio =
      static_cast<double>(out.failed) /
      static_cast<double>(std::max<std::uint64_t>(out.attempted, 1));
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!cfg.trace) {
    metrics = {
        {"latency_ms_p50", {out.latency_ms_p50, "ms"}},
        {"cpu_ms_per_op", {out.cpu_ms_per_op, "ms"}},
        {"peak_rss_mb", {out.peak_rss_mb, "MB"}},
        {"setup_s", {median(out.setup_s), "s"}},
    };
  } else {
    out.layers["fail_ratio"] = fail_ratio;
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = out.layers.find(name);
      const double value = it == out.layers.end() ? 0.0 : it->second;
      metrics.push_back({name, {value, unit}});
    }
  }

  // Human-readable report.
  std::printf("# kccbench workload=%s seed=%llu seconds=%s trace=%d scale=%s "
              "engine_threads=%zu serve_clients=%zu nproc=%ld git_sha=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              number(cfg.seconds).c_str(), cfg.trace ? 1 : 0, cfg.scale.c_str(),
              kEngineThreads, kServeClients, sysconf(_SC_NPROCESSORS_ONLN),
              KCC_BUILD_GIT_SHA);
  for (const auto& [key, value] : out.facts) {
    std::printf("#   %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("#   setup_s runs:");
  for (double s : out.setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  for (const auto& [name, vu] : metrics) {
    std::printf("  %-26s %16.6f %-6s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("  %-26s %16zu ops behind the medians\n", "samples", out.samples);
  if (out.tail.first > 0.0) {
    std::printf("  %-26s %16.6f ms (p%g)\n", "latency tail", out.tail.second,
                100.0 * out.tail.first);
  }
  std::printf("  %-26s %16.6f (%llu of %llu)\n", "fail_ratio", fail_ratio,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  if (cfg.trace) {
    std::printf("# per-operation layer times (median over ops, ms): "
                "inclusive / self\n");
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        by_name;
    for (const auto& entry : out.op_layers) {
      for (const auto& [name, ms] : entry.second.inclusive_ms) {
        by_name[name].first.push_back(ms);
        by_name[name].second.push_back(entry.second.self_ms.at(name));
      }
    }
    for (const auto& [name, v] : by_name) {
      std::printf("#   %-16s %12.4f / %12.4f\n", name.c_str(), median(v.first),
                  median(v.second));
    }
  }
  for (const std::string& f : out.failures) {
    std::printf("# FAIL %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": {\"value\": " +
            number(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kccbench

int main(int argc, char** argv) {
  try {
    return kccbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kccbench: %s\n", e.what());
    return 2;
  }
}
