#include "graph/graph.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "common/error.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;
using testing::make_graph;

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_DOUBLE_EQ(g.density(), 0.0);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, BasicConstruction) {
  const Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(Graph, DuplicateEdgesMerged) {
  const Graph g = make_graph(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, SelfLoopRejected) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), Error);
}

TEST(Graph, NeighborsSorted) {
  const Graph g = make_graph(6, {{3, 0}, {3, 5}, {3, 1}, {3, 4}, {3, 2}});
  const auto adj = g.neighbors(3);
  ASSERT_EQ(adj.size(), 5u);
  for (std::size_t i = 1; i < adj.size(); ++i) {
    EXPECT_LT(adj[i - 1], adj[i]);
  }
}

TEST(Graph, BuilderGrowsNodes) {
  GraphBuilder b;
  b.add_edge(0, 9);
  const Graph g = b.build();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, EnsureNodesAddsIsolated) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.ensure_nodes(5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.degree(4), 0u);
}

TEST(Graph, EdgesCanonicalOrder) {
  const Graph g = make_graph(4, {{2, 1}, {3, 0}, {0, 1}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(NodeId{0}, NodeId{1}));
  EXPECT_EQ(edges[1], std::make_pair(NodeId{0}, NodeId{3}));
  EXPECT_EQ(edges[2], std::make_pair(NodeId{1}, NodeId{2}));
}

TEST(Graph, DensityOfCompleteGraph) {
  EXPECT_DOUBLE_EQ(complete_graph(5).density(), 1.0);
  EXPECT_DOUBLE_EQ(make_graph(4, {{0, 1}}).density(), 1.0 / 6.0);
}

TEST(Graph, MaxDegree) {
  const Graph g = make_graph(5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, FromEdgesMatchesBuilder) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {2, 1}, {0, 2}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  const Graph g = make_graph(2, {{0, 1}});
  EXPECT_FALSE(g.has_edge(0, 7));
  EXPECT_FALSE(g.has_edge(7, 0));
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(Graph, LargeStarDegrees) {
  GraphBuilder b;
  for (NodeId i = 1; i <= 1000; ++i) b.add_edge(0, i);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(0), 1000u);
  EXPECT_EQ(g.max_degree(), 1000u);
  EXPECT_EQ(g.num_edges(), 1000u);
}

/// Sorted adjacency of a multigraph, derived with a std::set.
std::vector<std::vector<NodeId>> naive_adjacency(
    std::size_t num_nodes,
    const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::set<std::pair<NodeId, NodeId>> arcs;
  for (const auto& [u, v] : edges) {
    arcs.emplace(u, v);
    arcs.emplace(v, u);
  }
  std::vector<std::vector<NodeId>> adjacency(num_nodes);
  for (const auto& [u, v] : arcs) adjacency[u].push_back(v);
  return adjacency;
}

void expect_adjacency(const Graph& g,
                      const std::vector<std::vector<NodeId>>& expected) {
  ASSERT_EQ(g.num_nodes(), expected.size());
  std::size_t arcs = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto adj = g.neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(adj.begin(), adj.end()), expected[v])
        << "node " << v;
    arcs += expected[v].size();
  }
  EXPECT_EQ(g.num_edges() * 2, arcs);
}

TEST(Graph, BuilderMatchesNaiveAdjacencyOnRandomMultigraphs) {
  std::mt19937_64 rng(20250611);
  GraphBuilder builder;  // one builder, reused after every build()
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + rng() % 80;
    const std::size_t isolated = rng() % 4;  // nodes only ensure_nodes adds
    const std::size_t m = rng() % (3 * n + 1);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (std::size_t i = 0; i < m && n > 1; ++i) {
      const auto u = static_cast<NodeId>(rng() % n);
      const auto v = static_cast<NodeId>(rng() % n);
      if (u == v) continue;
      edges.emplace_back(u, v);
      if (rng() % 3 == 0) edges.emplace_back(v, u);  // reversed duplicate
      if (rng() % 5 == 0) edges.emplace_back(u, v);  // same-way duplicate
    }
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
    builder.ensure_nodes(n + isolated);
    const Graph g = builder.build();
    EXPECT_EQ(builder.num_nodes(), 0u);
    expect_adjacency(g, naive_adjacency(n + isolated, edges));
    expect_adjacency(Graph::from_edges(n + isolated, edges),
                     naive_adjacency(n + isolated, edges));
  }
}

TEST(Graph, BuilderWithOnlyIsolatedNodes) {
  GraphBuilder b(4);
  const Graph g = b.build();
  expect_adjacency(g, std::vector<std::vector<NodeId>>(4));
  expect_adjacency(GraphBuilder().build(), {});
}

}  // namespace
}  // namespace kcc
