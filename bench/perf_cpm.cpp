// Microbenchmarks: the Clique Percolation Method itself.
//
// The paper's LP-CPM needed 93 hours on 48 cores for the April-2010
// topology; these benchmarks demonstrate the same parallel structure
// (threads sweep), the maximal-clique reduction vs the literal
// k-clique-graph construction (reference CPM) at small scale, and the
// single-sweep engine vs the per-k rescan for all-k extraction.
//
// Special modes (used by the perf_cpm_* ctests):
//   perf_cpm --verify-sweep
// runs both engines on the default synthetic graph, checks the sweep output
// is identical to the per-k oracle for every k (communities, clique ids and
// the nesting tree), prints the all-k extraction speedup, and exits without
// running the registered benchmarks.
//   perf_cpm --verify-budget [--json=FILE]
// runs per_k, sweep (unbudgeted and under a 1 MiB --memory-budget that
// forces spilling) and almost_exact each in its own forked child, compares
// an FNV-1a digest of the full structural output (gate: all exact runs
// must agree; almost_exact is measured but exempt), measures per-run wall
// time and peak-RSS growth, and writes the machine-readable BENCH_cpm.json
// snapshot (schema in docs/FORMATS.md).
//   perf_cpm --verify-almost [--json=FILE]
// scores the almost_exact engine against the exact sweep per graph family:
// per-k community F1 curves (gate: worst F1 >= 0.99 on every family),
// plus forked-child wall/peak-RSS comparisons over the full k range and a
// high-k restriction, written to the BENCH_cpm_almost.json snapshot.
#include <benchmark/benchmark.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_json.h"
#include "clique/parallel_cliques.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "cpm/compare.h"
#include "cpm/engine.h"
#include "cpm/reference_cpm.h"
#include "cpm/sweep_cpm.h"
#include "obs/metrics.h"
#include "synth/as_topology.h"

namespace {

using namespace kcc;

Graph random_graph(std::size_t n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.next_bool(p)) b.add_edge(i, j);
    }
  }
  b.ensure_nodes(n);
  return b.build();
}

const Graph& ecosystem_graph() {
  static const Graph g = [] {
    SynthParams params = SynthParams::test_scale();
    return generate_ecosystem(params).topology.graph;
  }();
  return g;
}

// The suite's default experiment scale; large enough that the all-k
// comparison reflects real overlap-list sizes (~2M pairs).
const Graph& bench_graph() {
  static const Graph g = [] {
    SynthParams params = SynthParams::bench_scale();
    return generate_ecosystem(params).topology.graph;
  }();
  return g;
}

const std::vector<NodeSet>& bench_cliques() {
  static const std::vector<NodeSet> cliques = [] {
    ThreadPool pool(0);
    return parallel_maximal_cliques(bench_graph(), pool, 2);
  }();
  return cliques;
}

void BM_Cpm_Threads(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  CpmOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  std::size_t communities = 0;
  for (auto _ : state) {
    communities = run_cpm(g, options).total_communities();
    benchmark::DoNotOptimize(communities);
  }
  state.counters["communities"] = static_cast<double>(communities);
}
BENCHMARK(BM_Cpm_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// All-k extraction over pre-enumerated cliques: the tentpole comparison.
// The per-k path rescans the overlap list once per k; the sweep unites each
// pair exactly once and snapshots communities level by level.
void BM_Cpm_PerKAllK(benchmark::State& state) {
  const Graph& g = bench_graph();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<NodeSet> cliques = bench_cliques();  // copy
    state.ResumeTiming();
    auto result = run_cpm_on_cliques(g, std::move(cliques), {});
    benchmark::DoNotOptimize(result.total_communities());
  }
}
BENCHMARK(BM_Cpm_PerKAllK)->Unit(benchmark::kMillisecond);

void BM_Cpm_SweepAllK(benchmark::State& state) {
  const Graph& g = bench_graph();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<NodeSet> cliques = bench_cliques();  // copy
    state.ResumeTiming();
    auto result = run_sweep_cpm_on_cliques(g, std::move(cliques), {});
    benchmark::DoNotOptimize(result.cpm.total_communities());
    benchmark::DoNotOptimize(result.tree.nodes().size());
  }
}
BENCHMARK(BM_Cpm_SweepAllK)->Unit(benchmark::kMillisecond);

void BM_Cpm_MaximalCliqueReduction(benchmark::State& state) {
  // Percolation over maximal cliques (ours) on a dense random graph.
  const Graph g = random_graph(static_cast<std::size_t>(state.range(0)), 0.4, 3);
  for (auto _ : state) {
    auto result = run_cpm(g);
    benchmark::DoNotOptimize(result.total_communities());
  }
}
BENCHMARK(BM_Cpm_MaximalCliqueReduction)->Arg(20)->Arg(40)->Arg(80);

void BM_Cpm_ReferenceKCliqueGraph(benchmark::State& state) {
  // Ablation: the literal definition (enumerate k-cliques, pairwise
  // adjacency) — exponentially slower, hence the tiny sizes.
  const Graph g = random_graph(static_cast<std::size_t>(state.range(0)), 0.4, 3);
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::size_t k = 3; k <= 5; ++k) {
      total += reference_k_clique_communities(g, k).size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_Cpm_ReferenceKCliqueGraph)->Arg(20)->Arg(40);

void BM_Cpm_PerKScaling(benchmark::State& state) {
  // Cost of restricting the k range: percolating only high k is cheap.
  const Graph& g = ecosystem_graph();
  CpmOptions options;
  options.min_k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto result = run_cpm(g, options);
    benchmark::DoNotOptimize(result.total_communities());
  }
}
BENCHMARK(BM_Cpm_PerKScaling)->Arg(2)->Arg(6)->Arg(12)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------- --verify-sweep

bool same_communities(const CpmResult& a, const CpmResult& b) {
  if (a.min_k != b.min_k || a.max_k != b.max_k) return false;
  for (std::size_t k = a.min_k; k <= a.max_k; ++k) {
    const CommunitySet& sa = a.at(k);
    const CommunitySet& sb = b.at(k);
    if (sa.count() != sb.count()) return false;
    for (CommunityId id = 0; id < sa.count(); ++id) {
      if (sa.communities[id].nodes != sb.communities[id].nodes) return false;
      if (sa.communities[id].clique_ids != sb.communities[id].clique_ids) {
        return false;
      }
    }
    if (sa.community_of_clique != sb.community_of_clique) return false;
  }
  return true;
}

bool same_tree(const CommunityTree& a, const CommunityTree& b) {
  if (a.nodes().size() != b.nodes().size()) return false;
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const TreeNode& na = a.nodes()[i];
    const TreeNode& nb = b.nodes()[i];
    if (na.k != nb.k || na.community_id != nb.community_id ||
        na.size != nb.size || na.parent != nb.parent ||
        na.is_main != nb.is_main) {
      return false;
    }
  }
  return true;
}

// Verifies sweep == per-k oracle on the default synthetic graph and reports
// the all-k extraction speedup. Gates only on identity: timing is printed
// for the record but never fails the check (CI machines are noisy).
int verify_sweep() {
  const Graph& g = bench_graph();
  const std::vector<NodeSet>& cliques = bench_cliques();
  std::cout << "verify-sweep: " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges, " << cliques.size()
            << " maximal cliques\n";

  constexpr int kRounds = 3;
  double best_per_k = 1e100;
  double best_sweep = 1e100;
  CpmResult per_k;
  SweepCpmResult sweep;
  for (int round = 0; round < kRounds; ++round) {
    {
      std::vector<NodeSet> copy = cliques;
      Timer t;
      per_k = run_cpm_on_cliques(g, std::move(copy), {});
      best_per_k = std::min(best_per_k, t.seconds());
    }
    {
      std::vector<NodeSet> copy = cliques;
      Timer t;
      sweep = run_sweep_cpm_on_cliques(g, std::move(copy), {});
      best_sweep = std::min(best_sweep, t.seconds());
    }
  }

  if (!same_communities(per_k, sweep.cpm)) {
    std::cerr << "verify-sweep: FAIL — sweep communities differ from the "
                 "per-k oracle\n";
    return 1;
  }
  const CommunityTree oracle_tree = CommunityTree::build(per_k);
  if (!same_tree(oracle_tree, sweep.tree)) {
    std::cerr << "verify-sweep: FAIL — sweep tree differs from "
                 "CommunityTree::build over the per-k result\n";
    return 1;
  }

  std::cout << "verify-sweep: OK — identical communities and tree for k in ["
            << per_k.min_k << ", " << per_k.max_k << "] ("
            << per_k.total_communities() << " communities)\n";
  std::cout << "verify-sweep: all-k extraction best of " << kRounds
            << ": per_k " << fixed(best_per_k * 1e3, 2) << " ms, sweep "
            << fixed(best_sweep * 1e3, 2) << " ms, speedup "
            << fixed(best_per_k / best_sweep, 2) << "x\n";
  return 0;
}

// -------------------------------------------------------- --verify-budget

// FNV-1a over the full structural output, so engine-identity across process
// boundaries reduces to one integer comparison.
class Fnv {
 public:
  void mix(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ (x & 0xff)) * 1099511628211ull;
      x >>= 8;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t digest_result(const CpmResult& cpm, const CommunityTree& tree) {
  Fnv fnv;
  fnv.mix(cpm.min_k);
  fnv.mix(cpm.max_k);
  fnv.mix(cpm.cliques.size());
  for (const NodeSet& clique : cpm.cliques) {
    fnv.mix(clique.size());
    for (NodeId v : clique) fnv.mix(v);
  }
  for (const CommunitySet& set : cpm.by_k) {
    fnv.mix(set.k);
    fnv.mix(set.count());
    for (const Community& c : set.communities) {
      fnv.mix(c.nodes.size());
      for (NodeId v : c.nodes) fnv.mix(v);
      fnv.mix(c.clique_ids.size());
      for (CliqueId id : c.clique_ids) fnv.mix(id);
    }
    for (std::uint32_t id : set.community_of_clique) fnv.mix(id);
  }
  fnv.mix(tree.nodes().size());
  for (const TreeNode& node : tree.nodes()) {
    fnv.mix(node.k);
    fnv.mix(node.community_id);
    fnv.mix(node.size);
    fnv.mix(static_cast<std::uint64_t>(node.parent + 1));
    fnv.mix(node.is_main ? 1 : 0);
  }
  return fnv.value();
}

// One engine configuration of a forked measurement child: a registry
// engine name plus the options that distinguish the run.
struct EngineRun {
  const char* name;                 // registry name, see cpm::engine_registry()
  std::uint64_t memory_budget = 0;  // sweep only
  std::size_t min_k = 2;            // raised for the high-k comparisons
  bool exact = true;                // exempt from the digest gate when false
};

// Everything a measurement child reports back through its pipe.
struct ChildReport {
  bool ok = false;
  double wall_ms = 0.0;
  std::uint64_t peak_rss_delta = 0;  // VmHWM growth during the run
  std::uint64_t digest = 0;
  std::uint64_t communities = 0;
  std::uint64_t pairs_total = 0;    // sweep only, else 0
  std::uint64_t spilled_pairs = 0;  // sweep only, else 0
};

// Runs one engine end to end (enumeration included) in a forked child and
// reports wall/peak/digest through a pipe. A fresh process per run is the
// only way to compare peak RSS: VmHWM is monotonic per process, so
// in-process back-to-back runs would all inherit the first run's peak.
// The child measures its own VmHWM right after fork as the baseline (the
// parent's already-resident graph is shared copy-on-write), so the delta
// isolates what the engine itself allocated.
ChildReport run_engine_in_child(const Graph& g, const EngineRun& config) {
  int fds[2];
  ChildReport report;
  if (pipe(fds) != 0) return report;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return report;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::uint64_t baseline = obs::peak_rss_bytes();
    Timer t;
    std::uint64_t digest = 0;
    std::uint64_t communities = 0;
    std::uint64_t pairs_total = 0;
    std::uint64_t spilled_pairs = 0;
    if (std::strcmp(config.name, "sweep") == 0) {
      // Direct call: the facade does not surface the spill statistics.
      CpmOptions options;
      options.memory_budget = config.memory_budget;
      options.min_k = config.min_k;
      const SweepCpmResult result = run_sweep_cpm(g, options);
      digest = digest_result(result.cpm, result.tree);
      communities = result.cpm.total_communities();
      pairs_total = result.stats.pairs;
      spilled_pairs = result.stats.spilled_pairs;
    } else {
      cpm::Options options;
      options.engine = config.name;
      options.min_k = config.min_k;
      const cpm::Result result = cpm::Engine(options).run(g);
      digest = digest_result(result.cpm, result.tree);
      communities = result.cpm.total_communities();
    }
    const double wall_ms = t.seconds() * 1e3;
    const std::uint64_t peak_delta = obs::peak_rss_bytes() - baseline;
    std::ostringstream line;
    line << wall_ms << " " << peak_delta << " " << digest << " "
         << communities << " " << pairs_total << " " << spilled_pairs << "\n";
    const std::string text = line.str();
    const ssize_t written = write(fds[1], text.data(), text.size());
    close(fds[1]);
    _exit(written == static_cast<ssize_t>(text.size()) ? 0 : 1);
  }
  close(fds[1]);
  std::string text;
  char buf[256];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) text.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return report;
  std::istringstream fields(text);
  fields >> report.wall_ms >> report.peak_rss_delta >> report.digest >>
      report.communities >> report.pairs_total >> report.spilled_pairs;
  report.ok = !fields.fail();
  return report;
}

// Compares per_k / sweep / sweep-under-budget end to end (plus an
// almost_exact measurement row): digest identity across the exact runs
// gates the exit code; wall and peak-RSS numbers are printed and written to
// `json_path`. Timing/memory never fail the check (CI machines are noisy) —
// the committed snapshot is what documents the expectation.
int verify_budget(const std::string& json_path) {
  // Small enough that the bench graph's overlap pairs overflow it and the
  // spill path is actually exercised (resident pairs stay under ~1 MiB).
  const std::uint64_t budget = 1024 * 1024;
  const Graph& g = bench_graph();
  std::cout << "verify-budget: " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges\n";

  const EngineRun configs[] = {
      {"per_k"},
      {"sweep"},
      {"sweep", budget},
      {"almost_exact", 0, 2, /*exact=*/false},
  };
  constexpr int kConfigs = 4;
  constexpr int kRounds = 2;
  ChildReport best[kConfigs];
  for (int i = 0; i < kConfigs; ++i) {
    for (int round = 0; round < kRounds; ++round) {
      const ChildReport report = run_engine_in_child(g, configs[i]);
      if (!report.ok) {
        std::cerr << "verify-budget: FAIL — " << configs[i].name
                  << " child did not report\n";
        return 1;
      }
      if (round == 0) {
        best[i] = report;
      } else {  // digest/communities are identical across rounds
        best[i].wall_ms = std::min(best[i].wall_ms, report.wall_ms);
        best[i].peak_rss_delta =
            std::min(best[i].peak_rss_delta, report.peak_rss_delta);
      }
    }
    std::cout << "verify-budget: " << configs[i].name;
    if (configs[i].memory_budget > 0) {
      std::cout << " (budget " << configs[i].memory_budget / (1024 * 1024)
                << "M, " << best[i].spilled_pairs << " pairs spilled)";
    }
    std::cout << ": " << fixed(best[i].wall_ms, 2) << " ms, peak +"
              << best[i].peak_rss_delta / (1024 * 1024) << " MiB, "
              << best[i].communities << " communities\n";
  }

  for (int i = 1; i < kConfigs; ++i) {
    if (!configs[i].exact) continue;  // almost_exact: measured, not gated
    if (best[i].digest != best[0].digest) {
      std::cerr << "verify-budget: FAIL — " << configs[i].name
                << (configs[i].memory_budget ? " (budgeted)" : "")
                << " output digest differs from the per-k oracle\n";
      return 1;
    }
  }
  if (best[2].spilled_pairs == 0) {
    std::cerr << "verify-budget: FAIL — the budgeted run never spilled; the "
                 "budget is not exercising the spill path at this scale\n";
    return 1;
  }

  const double peak_ratio = best[2].peak_rss_delta == 0
                                ? 0.0
                                : static_cast<double>(best[1].peak_rss_delta) /
                                      static_cast<double>(best[2].peak_rss_delta);
  const double wall_ratio = best[1].wall_ms == 0.0
                                ? 0.0
                                : best[2].wall_ms / best[1].wall_ms;
  std::cout << "verify-budget: OK — identical digests across all exact "
               "runs\n";
  std::cout << "verify-budget: budgeted peak is " << fixed(peak_ratio, 2)
            << "x below unbudgeted; budgeted wall is " << fixed(wall_ratio, 2)
            << "x unbudgeted\n";

  std::vector<bench::Json> runs;
  for (int i = 0; i < kConfigs; ++i) {
    const bool is_sweep = std::strcmp(configs[i].name, "sweep") == 0;
    bench::Json run;
    run.add("engine", configs[i].name);
    run.add("exact", configs[i].exact);
    if (is_sweep) {
      run.add("memory_budget_bytes", configs[i].memory_budget);
    }
    run.add("wall_ms", best[i].wall_ms);
    run.add("peak_rss_delta_bytes", best[i].peak_rss_delta);
    run.add("communities", best[i].communities);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(best[i].digest));
    run.add("digest", digest);
    if (is_sweep) {
      run.add("pairs_total", best[i].pairs_total);
      run.add("spilled_pairs", best[i].spilled_pairs);
    }
    runs.push_back(std::move(run));
  }
  bench::Json graph;
  graph.add("scale", "bench");
  graph.add("nodes", g.num_nodes());
  graph.add("edges", g.num_edges());
  bench::Json derived;
  derived.add("unbudgeted_over_budgeted_peak_ratio", peak_ratio);
  derived.add("budgeted_over_unbudgeted_wall_ratio", wall_ratio);
  bench::Json doc;
  doc.add("bench", "perf_cpm --verify-budget");
  doc.add("manifest", bench::manifest_json(obs::collect_manifest("perf_cpm")));
  doc.add("rounds", static_cast<std::uint64_t>(kRounds));
  doc.add("graph", graph);
  doc.add_array("runs", runs);
  doc.add("derived", derived);

  std::ofstream out(json_path);
  if (!out.good()) {
    std::cerr << "verify-budget: cannot write " << json_path << "\n";
    return 1;
  }
  out << doc.str() << "\n";
  std::cout << "verify-budget: wrote " << json_path << "\n";
  return 0;
}

// -------------------------------------------------------- --verify-almost

// Scores the almost_exact engine (Baudin et al. 2021, bounded-memory
// percolation without the overlap join) against the exact sweep, per graph
// family. The gate is the exactness gap: worst per-k community F1 must stay
// >= kMinF1 on every family. Wall/peak-RSS comparisons run in forked
// children (full k range plus a high-k restriction, where the exact
// engines' overlap pair list is most wasteful); timing and memory are
// recorded in the BENCH_cpm_almost.json snapshot but never fail the check.
int verify_almost(const std::string& json_path) {
  constexpr double kMinF1 = 0.99;
  constexpr int kRounds = 2;

  struct Family {
    const char* name;
    const Graph* graph;
  };
  const Graph dense = random_graph(150, 0.3, 11);
  const Family families[] = {
      {"ecosystem_bench", &bench_graph()},
      {"ecosystem_test", &ecosystem_graph()},
      {"dense_random_150", &dense},
  };

  bool ok = true;
  std::vector<bench::Json> family_docs;
  for (const Family& family : families) {
    const Graph& g = *family.graph;
    std::cout << "verify-almost: " << family.name << ": " << g.num_nodes()
              << " nodes, " << g.num_edges() << " edges\n";

    // Exactness gap, in-process: the timing children below redo the runs
    // cold, so warm caches here cost nothing.
    cpm::Options exact_options;
    exact_options.engine = "sweep";
    const cpm::Result exact = cpm::Engine(exact_options).run(g);
    cpm::Options almost_options;
    almost_options.engine = "almost_exact";
    const cpm::Result almost = cpm::Engine(almost_options).run(g);
    cpm::CompareOptions compare_options;
    compare_options.min_f1 = kMinF1;
    const cpm::Comparison gap =
        cpm::compare_results(exact, almost, compare_options);
    std::cout << "verify-almost: " << family.name << ": " << gap.summary
              << "\n";
    if (!gap.ok) {
      std::cerr << "verify-almost: FAIL — " << family.name
                << " exceeds the exactness gap (worst F1 "
                << fixed(gap.worst_f1, 4) << " at k=" << gap.worst_k
                << ", threshold " << fixed(kMinF1, 2) << ")\n";
      ok = false;
    }

    // High-k restriction: percolate only the top third of the k range.
    const std::size_t max_k = exact.cpm.max_k;
    const std::size_t high_k =
        std::max<std::size_t>(3, std::min(max_k, (max_k * 2) / 3));

    const EngineRun configs[] = {
        {"sweep"},
        {"almost_exact", 0, 2, /*exact=*/false},
        {"sweep", 0, high_k},
        {"almost_exact", 0, high_k, /*exact=*/false},
    };
    constexpr int kConfigs = 4;
    ChildReport best[kConfigs];
    for (int i = 0; i < kConfigs; ++i) {
      for (int round = 0; round < kRounds; ++round) {
        const ChildReport report = run_engine_in_child(g, configs[i]);
        if (!report.ok) {
          std::cerr << "verify-almost: FAIL — " << configs[i].name
                    << " child did not report on " << family.name << "\n";
          return 1;
        }
        if (round == 0) {
          best[i] = report;
        } else {
          best[i].wall_ms = std::min(best[i].wall_ms, report.wall_ms);
          best[i].peak_rss_delta =
              std::min(best[i].peak_rss_delta, report.peak_rss_delta);
        }
      }
      std::cout << "verify-almost: " << configs[i].name << " k>="
                << configs[i].min_k << ": " << fixed(best[i].wall_ms, 2)
                << " ms, peak +" << best[i].peak_rss_delta / (1024 * 1024)
                << " MiB, " << best[i].communities << " communities\n";
    }

    auto ratio = [](double sweep_value, double almost_value) {
      return almost_value == 0.0 ? 0.0 : sweep_value / almost_value;
    };
    const double full_wall = ratio(best[0].wall_ms, best[1].wall_ms);
    const double full_peak = ratio(
        static_cast<double>(best[0].peak_rss_delta),
        static_cast<double>(best[1].peak_rss_delta));
    const double high_wall = ratio(best[2].wall_ms, best[3].wall_ms);
    const double high_peak = ratio(
        static_cast<double>(best[2].peak_rss_delta),
        static_cast<double>(best[3].peak_rss_delta));
    std::cout << "verify-almost: " << family.name << " k>=" << high_k
              << ": sweep wall is " << fixed(high_wall, 2)
              << "x almost, sweep peak is " << fixed(high_peak, 2)
              << "x almost\n";

    std::vector<bench::Json> levels;
    for (const cpm::LevelGap& level : gap.levels) {
      bench::Json row;
      row.add("k", static_cast<std::uint64_t>(level.k));
      row.add("baseline_communities",
              static_cast<std::uint64_t>(level.communities_baseline));
      row.add("candidate_communities",
              static_cast<std::uint64_t>(level.communities_candidate));
      row.add("recall", level.recall);
      row.add("precision", level.precision);
      row.add("f1", level.f1);
      levels.push_back(std::move(row));
    }
    bench::Json gap_doc;
    gap_doc.add("identical", gap.identical);
    gap_doc.add("worst_f1", gap.worst_f1);
    gap_doc.add("worst_k", static_cast<std::uint64_t>(gap.worst_k));
    gap_doc.add_array("levels", levels);

    std::vector<bench::Json> runs;
    for (int i = 0; i < kConfigs; ++i) {
      bench::Json run;
      run.add("engine", configs[i].name);
      run.add("exact", configs[i].exact);
      run.add("min_k", static_cast<std::uint64_t>(configs[i].min_k));
      run.add("wall_ms", best[i].wall_ms);
      run.add("peak_rss_delta_bytes", best[i].peak_rss_delta);
      run.add("communities", best[i].communities);
      runs.push_back(std::move(run));
    }
    bench::Json derived;
    derived.add("full_sweep_over_almost_wall_ratio", full_wall);
    derived.add("full_sweep_over_almost_peak_ratio", full_peak);
    derived.add("high_k_sweep_over_almost_wall_ratio", high_wall);
    derived.add("high_k_sweep_over_almost_peak_ratio", high_peak);

    bench::Json fam;
    fam.add("name", family.name);
    fam.add("nodes", g.num_nodes());
    fam.add("edges", g.num_edges());
    fam.add("high_k", static_cast<std::uint64_t>(high_k));
    fam.add("gap", gap_doc);
    fam.add_array("runs", runs);
    fam.add("derived", derived);
    family_docs.push_back(std::move(fam));
  }

  bench::Json doc;
  doc.add("bench", "perf_cpm --verify-almost");
  doc.add("manifest", bench::manifest_json(obs::collect_manifest("perf_cpm")));
  doc.add("rounds", static_cast<std::uint64_t>(kRounds));
  doc.add("min_f1", kMinF1);
  doc.add_array("families", family_docs);
  std::ofstream out(json_path);
  if (!out.good()) {
    std::cerr << "verify-almost: cannot write " << json_path << "\n";
    return 1;
  }
  out << doc.str() << "\n";
  std::cout << "verify-almost: wrote " << json_path << "\n";
  if (ok) {
    std::cout << "verify-almost: OK — worst community F1 within "
              << fixed(kMinF1, 2) << " of the exact sweep on all "
              << family_docs.size() << " families\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool verify_budget_mode = false;
  bool verify_almost_mode = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify-sweep") == 0) return verify_sweep();
    if (std::strcmp(argv[i], "--verify-budget") == 0) {
      verify_budget_mode = true;
    } else if (std::strcmp(argv[i], "--verify-almost") == 0) {
      verify_almost_mode = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  if (verify_budget_mode) {
    return verify_budget(json_path.empty() ? "BENCH_cpm.json" : json_path);
  }
  if (verify_almost_mode) {
    return verify_almost(json_path.empty() ? "BENCH_cpm_almost.json"
                                           : json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
