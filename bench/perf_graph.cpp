// Microbenchmarks: the graph substrate underneath everything — degeneracy
// peeling (Bron–Kerbosch front end and the k-core baseline), connected
// components (k=2 percolation fast path), triangle counting, edge tests,
// induced subgraphs (tag analysis), and loading: CSR build and edge-list
// parse.
//
// Special mode:
//   perf_graph --verify-has-edge
// the has_edge micro-benchmark assertion: checks the galloping edge test
// against a naive linear-scan reference on hub/star/ecosystem/random
// fixtures (positive, negative, boundary and out-of-range queries), times
// a query sweep, and exits non-zero on any disagreement. Registered as the
// tier-1 ctest perf_graph_verify_has_edge.
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <sstream>

#include "common/rng.h"
#include "common/timer.h"
#include "graph/clustering.h"
#include "graph/degeneracy.h"
#include "graph/graph_algorithms.h"
#include "graph/subgraph.h"
#include "io/edge_list.h"
#include "synth/as_topology.h"

namespace {

using namespace kcc;

const Graph& ecosystem_graph() {
  static const Graph g = [] {
    return generate_ecosystem(SynthParams::test_scale()).topology.graph;
  }();
  return g;
}

void BM_DegeneracyOrder(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  for (auto _ : state) {
    auto r = degeneracy_order(g);
    benchmark::DoNotOptimize(r.degeneracy);
  }
}
BENCHMARK(BM_DegeneracyOrder);

void BM_ConnectedComponents(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  for (auto _ : state) {
    auto labels = connected_components(g);
    benchmark::DoNotOptimize(labels.count);
  }
}
BENCHMARK(BM_ConnectedComponents);

void BM_TriangleCount(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  for (auto _ : state) {
    auto t = triangle_count(g);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_TriangleCount);

void BM_InducedSubgraph(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  // Half the nodes, deterministic selection.
  NodeSet nodes;
  for (NodeId v = 0; v < g.num_nodes(); v += 2) nodes.push_back(v);
  for (auto _ : state) {
    auto sub = induced_subgraph(g, nodes);
    benchmark::DoNotOptimize(sub.graph.num_edges());
  }
}
BENCHMARK(BM_InducedSubgraph);

void BM_GraphBuild(benchmark::State& state) {
  const auto edges = ecosystem_graph().edges();
  const std::size_t n = ecosystem_graph().num_nodes();
  for (auto _ : state) {
    Graph g = Graph::from_edges(n, edges);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GraphBuild);

// The same graph as edge-list text, in shuffled line and endpoint order
// with labels id + 1, as a topology file arrives.
void BM_ReadEdgeList(benchmark::State& state) {
  auto edges = ecosystem_graph().edges();
  Rng rng(5);
  rng.shuffle(edges);
  std::ostringstream out;
  for (const auto& [u, v] : edges) {
    const bool flip = rng.next_bool(0.5);
    out << (flip ? v : u) + 1 << ' ' << (flip ? u : v) + 1 << '\n';
  }
  const std::string text = out.str();
  for (auto _ : state) {
    std::istringstream in(text);
    const LabeledGraph g = read_edge_list(in);
    benchmark::DoNotOptimize(g.graph.num_edges());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadEdgeList);

void BM_EcosystemGeneration(benchmark::State& state) {
  SynthParams params = SynthParams::test_scale();
  for (auto _ : state) {
    params.seed += 1;  // avoid measuring a warm deterministic path
    auto eco = generate_ecosystem(params);
    benchmark::DoNotOptimize(eco.topology.graph.num_edges());
  }
}
BENCHMARK(BM_EcosystemGeneration)->Unit(benchmark::kMillisecond);

void BM_HasEdge_Ecosystem(benchmark::State& state) {
  const Graph& g = ecosystem_graph();
  Rng rng(11);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (int i = 0; i < 4096; ++i) {
    queries.emplace_back(static_cast<NodeId>(rng.next_below(g.num_nodes())),
                         static_cast<NodeId>(rng.next_below(g.num_nodes())));
  }
  std::size_t hits = 0;
  for (auto _ : state) {
    for (const auto& [u, v] : queries) hits += g.has_edge(u, v) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_HasEdge_Ecosystem);

// ------------------------------------------------------ --verify-has-edge

// Naive reference: scan the full adjacency list of u.
bool has_edge_naive(const Graph& g, NodeId u, NodeId v) {
  if (u >= g.num_nodes() || v >= g.num_nodes() || u == v) return false;
  for (const NodeId w : g.neighbors(u)) {
    if (w == v) return true;
  }
  return false;
}

int verify_has_edge() {
  struct Fixture {
    std::string name;
    Graph graph;
  };
  std::vector<Fixture> fixtures;
  {
    // Hub: node 0 adjacent to everyone — the galloping case. The probe
    // always runs on the degree-1 side, but querying hub-to-hub after
    // adding a clique among high ids exercises long-list search too.
    GraphBuilder b(4000);
    for (NodeId v = 1; v < 4000; ++v) b.add_edge(0, v);
    for (NodeId v = 3990; v < 4000; ++v) {
      for (NodeId w = v + 1; w < 4000; ++w) b.add_edge(v, w);
    }
    fixtures.push_back({"hub", b.build()});
  }
  {
    // Star chain: short lists, exercises the linear-scan path.
    GraphBuilder b(64);
    for (NodeId v = 1; v < 64; ++v) b.add_edge(v - 1, v);
    fixtures.push_back({"chain", b.build()});
  }
  fixtures.push_back(
      {"ecosystem",
       generate_ecosystem(SynthParams::test_scale()).topology.graph});
  {
    Rng rng(5);
    GraphBuilder b(500);
    for (int e = 0; e < 6000; ++e) {
      const auto u = static_cast<NodeId>(rng.next_below(500));
      const auto v = static_cast<NodeId>(rng.next_below(500));
      if (u != v) b.add_edge(u, v);
    }
    b.ensure_nodes(500);
    fixtures.push_back({"random", b.build()});
  }

  std::size_t checked = 0;
  for (const Fixture& fixture : fixtures) {
    const Graph& g = fixture.graph;
    const std::size_t n = g.num_nodes();
    // Every real edge, in both orientations.
    for (const auto& [u, v] : g.edges()) {
      if (!g.has_edge(u, v) || !g.has_edge(v, u)) {
        std::cerr << "verify-has-edge: FAIL on " << fixture.name
                  << ": missing edge (" << u << ", " << v << ")\n";
        return 1;
      }
      checked += 2;
    }
    // Random queries (mostly negative), self-loops, boundaries, out of
    // range — all against the naive reference.
    Rng rng(99);
    std::vector<std::pair<NodeId, NodeId>> probes;
    for (int i = 0; i < 20000; ++i) {
      probes.emplace_back(static_cast<NodeId>(rng.next_below(n)),
                          static_cast<NodeId>(rng.next_below(n)));
    }
    for (NodeId v = 0; v < std::min<std::size_t>(n, 64); ++v) {
      probes.emplace_back(v, v);                              // self-loop
      probes.emplace_back(v, 0);                              // boundary low
      probes.emplace_back(v, static_cast<NodeId>(n - 1));     // boundary high
      probes.emplace_back(v, static_cast<NodeId>(n));         // out of range
      probes.emplace_back(static_cast<NodeId>(n + 17), v);    // out of range
    }
    for (const auto& [u, v] : probes) {
      if (g.has_edge(u, v) != has_edge_naive(g, u, v)) {
        std::cerr << "verify-has-edge: FAIL on " << fixture.name << ": ("
                  << u << ", " << v << ") galloping="
                  << g.has_edge(u, v) << " naive=" << has_edge_naive(g, u, v)
                  << "\n";
        return 1;
      }
      ++checked;
    }
    // Micro-benchmark assertion: time the sweep so a pathological
    // regression (e.g. accidental O(degree) scan on hubs) is visible in
    // the test log.
    Timer timer;
    std::size_t hits = 0;
    for (const auto& [u, v] : probes) hits += g.has_edge(u, v) ? 1 : 0;
    std::cout << "verify-has-edge: " << fixture.name << ": " << probes.size()
              << " probes in " << timer.seconds() * 1e3 << " ms (" << hits
              << " hits)\n";
  }
  std::cout << "verify-has-edge: OK — " << checked << " queries agree with "
            << "the naive reference\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify-has-edge") == 0) {
      return verify_has_edge();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
