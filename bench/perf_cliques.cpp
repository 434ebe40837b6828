// Microbenchmarks: maximal-clique enumeration (the LP-CPM front end).
//
// Ablations from DESIGN.md: sequential vs parallel enumeration, and the
// inverted-index overlap computation vs the all-pairs scan.
//
// Special modes:
//   perf_cliques --bench-json[=FILE]
// times the two enumerators (sequential, parallel) on the test-scale
// ecosystem graph, checks they produce the same clique list, and
// writes the machine-readable BENCH_cliques.json snapshot (schema in
// docs/FORMATS.md) instead of running the registered benchmarks.
//
//   perf_cliques --scaling[=FILE] [--scaling-nodes=N,N,...]
//                [--scaling-threads=T,T,...] [--scaling-rounds=N]
//                [--scaling-eco=test|bench|none]
// the clique-backend scaling sweep: sparse vs bitset over the bench-scale
// ecosystem graph plus preferential-attachment synthetics with planted
// overlapping cliques (default 100k and 1M nodes), crossed with a thread
// axis. Verifies the backends agree (clique count + order-sensitive FNV
// digest per graph), reports the sparse/bitset speedup, and writes
// BENCH_clique_scaling.json (schema in docs/FORMATS.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "clique/bron_kerbosch.h"
#include "clique/enumerator.h"
#include "clique/parallel_cliques.h"
#include "common/rng.h"
#include "common/set_ops.h"
#include "common/timer.h"
#include "cpm/clique_index.h"
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

void BM_BronKerbosch_Random(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = random_graph(n, 0.1, 7);
  std::size_t cliques = 0;
  for (auto _ : state) {
    cliques = maximal_cliques(g, 2).size();
    benchmark::DoNotOptimize(cliques);
  }
  state.counters["cliques"] = static_cast<double>(cliques);
}
BENCHMARK(BM_BronKerbosch_Random)->Arg(100)->Arg(300)->Arg(1000);

void BM_BronKerbosch_AsTopology(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  std::size_t cliques = 0;
  for (auto _ : state) {
    cliques = maximal_cliques(g, 2).size();
    benchmark::DoNotOptimize(cliques);
  }
  state.counters["cliques"] = static_cast<double>(cliques);
}
BENCHMARK(BM_BronKerbosch_AsTopology)->Unit(benchmark::kMillisecond);

void BM_ParallelCliques_Threads(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto cliques = parallel_maximal_cliques(g, pool, 2);
    benchmark::DoNotOptimize(cliques.data());
  }
}
BENCHMARK(BM_ParallelCliques_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_OverlapIndex_Inverted(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  const auto cliques = maximal_cliques(g, 3);
  for (auto _ : state) {
    auto overlaps =
        compute_clique_overlaps_sequential(cliques, g.num_nodes(), 2);
    benchmark::DoNotOptimize(overlaps.data());
  }
  state.counters["cliques"] = static_cast<double>(cliques.size());
}
BENCHMARK(BM_OverlapIndex_Inverted)->Unit(benchmark::kMillisecond);

void BM_OverlapIndex_AllPairs(benchmark::State& state) {
  // The ablation: quadratic pairwise intersection (what the inverted index
  // avoids). Runs on a capped clique set to stay in the milliseconds.
  const Graph& g = ecosystem_graph();
  auto cliques = maximal_cliques(g, 3);
  if (cliques.size() > 2000) cliques.resize(2000);
  for (auto _ : state) {
    std::size_t pairs = 0;
    for (std::size_t a = 0; a < cliques.size(); ++a) {
      for (std::size_t b = a + 1; b < cliques.size(); ++b) {
        if (intersection_at_least(cliques[a], cliques[b], 2)) ++pairs;
      }
    }
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["cliques"] = static_cast<double>(cliques.size());
}
BENCHMARK(BM_OverlapIndex_AllPairs)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------- --bench-json

int bench_json(const std::string& json_path) {
  const Graph& g = ecosystem_graph();
  constexpr int kRounds = 3;

  struct Entry {
    const char* enumerator;
    double best_ms = 1e100;
    std::size_t cliques = 0;
  };
  Entry entries[] = {{"sequential"}, {"parallel"}};

  std::vector<NodeSet> expected;
  for (int round = 0; round < kRounds; ++round) {
    {
      Timer t;
      auto cliques = maximal_cliques(g, 2);
      entries[0].best_ms = std::min(entries[0].best_ms, t.seconds() * 1e3);
      entries[0].cliques = cliques.size();
      if (round == 0) expected = std::move(cliques);
    }
    {
      ThreadPool pool(0);
      Timer t;
      auto cliques = parallel_maximal_cliques(g, pool, 2);
      entries[1].best_ms = std::min(entries[1].best_ms, t.seconds() * 1e3);
      entries[1].cliques = cliques.size();
      if (cliques != expected) {
        std::cerr << "bench-json: FAIL — parallel enumeration differs\n";
        return 1;
      }
    }
  }

  std::vector<bench::Json> runs;
  for (const Entry& entry : entries) {
    bench::Json run;
    run.add("enumerator", entry.enumerator);
    run.add("wall_ms", entry.best_ms);
    run.add("cliques", entry.cliques);
    runs.push_back(std::move(run));
    std::cout << "bench-json: " << entry.enumerator << " "
              << entry.best_ms << " ms, " << entry.cliques << " cliques\n";
  }
  bench::Json graph;
  graph.add("scale", "test");
  graph.add("nodes", g.num_nodes());
  graph.add("edges", g.num_edges());
  bench::Json doc;
  doc.add("bench", "perf_cliques --bench-json");
  doc.add("manifest",
          bench::manifest_json(obs::collect_manifest("perf_cliques")));
  doc.add("rounds", static_cast<std::uint64_t>(kRounds));
  doc.add("graph", graph);
  doc.add_array("runs", runs);

  std::ofstream out(json_path);
  if (!out.good()) {
    std::cerr << "bench-json: cannot write " << json_path << "\n";
    return 1;
  }
  out << doc.str() << "\n";
  std::cout << "bench-json: wrote " << json_path << "\n";
  return 0;
}

// ------------------------------------------------------------- --scaling

// Preferential-attachment backbone (m edges per new node) with planted
// overlapping cliques: one clique of 8..24 uniformly random members per
// ~500 nodes. The backbone gives the power-law hub structure of an AS
// topology; the planted cliques give the enumerator real work at every
// scale (a bare PA graph is almost clique-free).
Graph synthetic_scaling_graph(std::size_t n, std::uint64_t seed) {
  constexpr std::size_t kAttach = 4;
  Rng rng(seed);
  GraphBuilder b(n);
  // Degree-proportional sampling via the repeated-endpoints trick: every
  // edge endpoint lands in `endpoints`, so a uniform draw from it is a
  // draw proportional to current degree.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * kAttach * n);
  const std::size_t seed_nodes = std::min<std::size_t>(n, kAttach + 1);
  for (NodeId v = 1; v < seed_nodes; ++v) {
    b.add_edge(v - 1, v);
    endpoints.push_back(v - 1);
    endpoints.push_back(v);
  }
  for (NodeId v = static_cast<NodeId>(seed_nodes); v < n; ++v) {
    for (std::size_t e = 0; e < kAttach; ++e) {
      const NodeId target = endpoints[rng.next_below(endpoints.size())];
      if (target == v) continue;
      b.add_edge(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  const std::size_t planted = n / 500;
  for (std::size_t c = 0; c < planted; ++c) {
    const std::size_t size = 8 + rng.next_below(17);  // 8..24
    std::vector<NodeId> members;
    members.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      members.push_back(static_cast<NodeId>(rng.next_below(n)));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        b.add_edge(members[i], members[j]);
      }
    }
  }
  b.ensure_nodes(n);
  return b.build();
}

// Order-sensitive FNV-1a over the clique stream — equal iff both backends
// emit the same cliques in the same order (the canonical_digest invariant
// at the enumeration layer).
struct DigestSink {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t cliques = 0;

  void operator()(std::span<const NodeId> clique) {
    ++cliques;
    for (const NodeId v : clique) {
      hash = (hash ^ v) * 0x100000001b3ULL;
    }
    hash = (hash ^ 0xfffffffful) * 0x100000001b3ULL;
  }
};

std::vector<std::size_t> parse_size_list(const std::string& text,
                                         const char* what) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) out.push_back(std::stoull(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) {
    std::cerr << "scaling: empty " << what << " list '" << text << "'\n";
    std::exit(1);
  }
  return out;
}

struct ScalingConfig {
  std::string json_path = "BENCH_clique_scaling.json";
  std::vector<std::size_t> nodes{100'000, 1'000'000};
  std::vector<std::size_t> threads;  // empty -> {1, hardware} deduped
  int rounds = 2;
  std::string eco = "bench";  // test | bench | none
};

int scaling(const ScalingConfig& config) {
  std::vector<std::size_t> threads = config.threads;
  if (threads.empty()) {
    threads = {1};
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (hw > 1) threads.push_back(hw);
  }

  struct GraphSpec {
    std::string name;
    Graph graph;
  };
  std::vector<GraphSpec> graphs;
  if (config.eco != "none") {
    SynthParams params = config.eco == "test" ? SynthParams::test_scale()
                                              : SynthParams::bench_scale();
    graphs.push_back({"ecosystem-" + config.eco,
                      generate_ecosystem(params).topology.graph});
  }
  for (const std::size_t n : config.nodes) {
    graphs.push_back({"pa-planted-" + std::to_string(n),
                      synthetic_scaling_graph(n, 42)});
  }

  const clique::Backend backends[] = {clique::Backend::kSparse,
                                      clique::Backend::kBitset};
  std::vector<bench::Json> runs;
  bool ok = true;
  for (const GraphSpec& spec : graphs) {
    std::cout << "scaling: " << spec.name << " (" << spec.graph.num_nodes()
              << " nodes, " << spec.graph.num_edges() << " edges)\n";
    std::uint64_t digests[2] = {0, 0};
    double t1_ms[2] = {0.0, 0.0};
    for (int bi = 0; bi < 2; ++bi) {
      const clique::Backend backend = backends[bi];
      clique::Options options;
      options.min_size = 2;
      options.backend = backend;
      const clique::Enumerator e(spec.graph, options);
      for (const std::size_t t : threads) {
        double best_ms = 1e100;
        std::size_t cliques = 0;
        std::uint64_t digest = 0;
        for (int round = 0; round < config.rounds; ++round) {
          DigestSink sink;
          Timer timer;
          if (t == 1) {
            e.for_each(sink);
          } else {
            ThreadPool pool(t);
            for (const NodeSet& clique : e.collect(pool)) sink(clique);
          }
          best_ms = std::min(best_ms, timer.seconds() * 1e3);
          cliques = sink.cliques;
          digest = sink.hash;
        }
        if (t == 1) {
          digests[bi] = digest;
          t1_ms[bi] = best_ms;
        }
        const double rss_mb =
            static_cast<double>(obs::current_rss_bytes()) / (1024.0 * 1024.0);
        bench::Json run;
        run.add("graph", spec.name);
        run.add("nodes", static_cast<std::uint64_t>(spec.graph.num_nodes()));
        run.add("edges", static_cast<std::uint64_t>(spec.graph.num_edges()));
        run.add("backend", clique::backend_name(backend));
        run.add("threads", static_cast<std::uint64_t>(t));
        run.add("wall_ms", best_ms);
        run.add("cliques", static_cast<std::uint64_t>(cliques));
        char digest_hex[32];
        std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                      static_cast<unsigned long long>(digest));
        run.add("digest", digest_hex);
        run.add("rss_mb", rss_mb);
        runs.push_back(std::move(run));
        std::cout << "  " << clique::backend_name(backend) << " t" << t
                  << ": " << best_ms << " ms, " << cliques << " cliques, rss "
                  << static_cast<std::size_t>(rss_mb) << " MB\n";
      }
    }
    if (digests[0] != digests[1]) {
      std::cerr << "scaling: FAIL — backend digests differ on " << spec.name
                << "\n";
      ok = false;
    } else {
      std::cout << "  digests match; sparse/bitset t1 speedup "
                << (t1_ms[1] > 0 ? t1_ms[0] / t1_ms[1] : 0.0) << "x\n";
    }
  }
  if (!ok) return 1;

  bench::Json doc;
  doc.add("bench", "perf_cliques --scaling");
  doc.add("manifest",
          bench::manifest_json(obs::collect_manifest("perf_cliques")));
  doc.add("rounds", static_cast<std::uint64_t>(config.rounds));
  doc.add("peak_rss_mb",
          static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0));
  doc.add_array("runs", runs);
  std::ofstream out(config.json_path);
  if (!out.good()) {
    std::cerr << "scaling: cannot write " << config.json_path << "\n";
    return 1;
  }
  out << doc.str() << "\n";
  std::cout << "scaling: wrote " << config.json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool run_scaling = false;
  ScalingConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0) {
      return bench_json("BENCH_cliques.json");
    }
    if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
      return bench_json(argv[i] + 13);
    }
    if (std::strcmp(argv[i], "--scaling") == 0) {
      run_scaling = true;
    } else if (std::strncmp(argv[i], "--scaling=", 10) == 0) {
      run_scaling = true;
      config.json_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--scaling-nodes=", 16) == 0) {
      config.nodes = parse_size_list(argv[i] + 16, "--scaling-nodes");
    } else if (std::strncmp(argv[i], "--scaling-threads=", 18) == 0) {
      config.threads = parse_size_list(argv[i] + 18, "--scaling-threads");
    } else if (std::strncmp(argv[i], "--scaling-rounds=", 17) == 0) {
      config.rounds = std::max(1, std::atoi(argv[i] + 17));
    } else if (std::strncmp(argv[i], "--scaling-eco=", 14) == 0) {
      config.eco = argv[i] + 14;
    }
  }
  if (run_scaling) return scaling(config);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
