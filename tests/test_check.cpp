// The checker itself gets checked: the invariant oracles must reject
// hand-corrupted results, the generators must be deterministic, and the
// ddmin shrinker must reach 1-minimal reproducers on synthetic predicates.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "check/differential.h"
#include "check/generators.h"
#include "check/invariants.h"
#include "check/shrink.h"
#include "common/error.h"
#include "cpm/cpm.h"
#include "cpm/engine.h"
#include "io/edge_list.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::make_graph;
using testing::overlapping_cliques;
using testing::random_graph;

cpm::Result run_engine(const Graph& g) {
  return cpm::Engine(cpm::Options{}).run(g);
}

// ------------------------------------------------------------- invariants

TEST(CheckInvariants, CleanResultPasses) {
  const Graph g = overlapping_cliques(5, 5, 3);
  const check::Report report = check::check_invariants(g, run_engine(g), {});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.invariants_checked, 0u);
}

TEST(CheckInvariants, CatchesDroppedCommunityNode) {
  const Graph g = overlapping_cliques(5, 5, 3);
  cpm::Result result = run_engine(g);
  result.cpm.by_k[0].communities[0].nodes.pop_back();
  const check::Report report = check::check_invariants(g, result, {});
  ASSERT_FALSE(report.ok());
}

TEST(CheckInvariants, CatchesForeignCommunityNode) {
  const Graph g = make_graph(5, {{0, 1}, {0, 2}, {1, 2}, {3, 4}});
  cpm::Result result = run_engine(g);
  // Smuggle the isolated-edge node into the triangle's k=3 community.
  auto& nodes = result.cpm.at(3).communities[0].nodes;
  nodes.push_back(4);
  std::sort(nodes.begin(), nodes.end());
  const check::Report report = check::check_invariants(g, result, {});
  ASSERT_FALSE(report.ok());
}

TEST(CheckInvariants, CatchesCorruptCliqueMap) {
  // K5 and K4 sharing two nodes: two communities at k = 4. Listing the
  // K5's clique under the K4's community too breaks the level's partition.
  const Graph g = overlapping_cliques(5, 4, 2);
  cpm::Result result = run_engine(g);
  const std::uint64_t clean = cpm::canonical_digest(result);
  CommunitySet& set = result.cpm.at(4);
  ASSERT_EQ(set.count(), 2u);
  std::vector<CliqueId>& ids = set.communities[1].clique_ids;
  const CliqueId clique = set.communities[0].clique_ids.front();
  ids.insert(std::lower_bound(ids.begin(), ids.end(), clique), clique);
  EXPECT_NE(cpm::canonical_digest(result), clean);
  const check::Report report = check::check_invariants(g, result, {});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(std::any_of(report.failures.begin(), report.failures.end(),
                          [](const check::Failure& f) {
                            return f.invariant == "clique-map";
                          }))
      << report.to_string();
}

// The differential runner's clique-map fault (KCC_CHECK_INJECT_FAULT) must
// move the digest and trip the same invariant, even on a one-clique graph.
TEST(CheckInvariants, CatchesInjectedCliqueMapFault) {
  for (const Graph& g : {overlapping_cliques(5, 4, 2),
                         make_graph(2, {{0, 1}})}) {
    cpm::Result result = run_engine(g);
    const std::uint64_t clean = cpm::canonical_digest(result);
    ASSERT_FALSE(check::detail::inject_fault(result, "clique-map").empty());
    EXPECT_NE(cpm::canonical_digest(result), clean);
    const check::Report report = check::check_invariants(g, result, {});
    EXPECT_TRUE(std::any_of(report.failures.begin(), report.failures.end(),
                            [](const check::Failure& f) {
                              return f.invariant == "clique-map";
                            }))
        << report.to_string();
  }
}

TEST(CheckInvariants, CatchesNonMaximalClique) {
  const Graph g = testing::complete_graph(5);
  cpm::Result result = run_engine(g);
  ASSERT_FALSE(result.cpm.cliques.empty());
  result.cpm.cliques[0].pop_back();  // K5 minus a node is not maximal
  const check::Report report = check::check_invariants(g, result, {});
  ASSERT_FALSE(report.ok());
}

TEST(CheckInvariants, CatchesCanonicalOrderViolation) {
  // Triangle and K4: two k=2 communities, canonically K4 first. Swapping
  // them violates both the (size desc, lex) order and the id stamps.
  const Graph g = make_graph(7, {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5},
                                 {3, 6}, {4, 5}, {4, 6}, {5, 6}});
  cpm::Result result = run_engine(g);
  auto& communities = result.cpm.at(2).communities;
  ASSERT_EQ(communities.size(), 2u);
  std::swap(communities[0], communities[1]);
  const check::Report report = check::check_invariants(g, result, {});
  ASSERT_FALSE(report.ok());
}

TEST(CheckInvariants, CatchesBrokenTree) {
  const Graph g = random_graph(30, 0.4, 3);
  cpm::Result result = run_engine(g);
  ASSERT_TRUE(result.has_tree);
  ASSERT_FALSE(result.tree.nodes().empty());
  auto& node = const_cast<TreeNode&>(result.tree.nodes()[0]);
  node.is_main = !node.is_main;
  const check::Report report = check::check_invariants(g, result, {});
  ASSERT_FALSE(report.ok());
}

// ------------------------------------------------------------- generators

TEST(CheckGenerators, DeterministicInSeedAndIndex) {
  for (std::size_t index : {0u, 3u, 10u, 11u, 14u, 23u}) {
    const check::TestGraph a = check::generate_graph(42, index);
    const check::TestGraph b = check::generate_graph(42, index);
    EXPECT_EQ(a.name, b.name) << index;
    EXPECT_EQ(a.num_nodes, b.num_nodes) << index;
    EXPECT_EQ(a.edges, b.edges) << index;
  }
  // Different seeds diverge on the random families (not the fixed shapes).
  const check::TestGraph a = check::generate_graph(1, 10);
  const check::TestGraph b = check::generate_graph(2, 10);
  EXPECT_NE(a.edges, b.edges);
}

TEST(CheckGenerators, DegenerateShapesComeFirstAndBuild) {
  ASSERT_GE(check::degenerate_graph_count(), 8u);
  for (std::size_t i = 0; i < check::degenerate_graph_count(); ++i) {
    const check::TestGraph g = check::generate_graph(7, i);
    const Graph built = g.build();  // must not throw, self-loops filtered
    EXPECT_GE(built.num_nodes(), 0u) << g.name;
  }
  EXPECT_EQ(check::generate_graph(7, 0).name,
            check::generate_graph(99, 0).name)
      << "degenerate shapes are seed-independent";
}

TEST(CheckGenerators, EdgeListRoundTripsThroughLoader) {
  const check::TestGraph g = check::generate_graph(5, 12);
  std::istringstream in(g.to_edge_list());
  const LabeledGraph loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_edges(), g.build().num_edges());
}

// ---------------------------------------------------------------- shrink

TEST(CheckShrink, FindsSingleCulpritEdge) {
  // Predicate: "fails" iff the graph still contains edge (3, 4).
  check::TestGraph g;
  g.name = "culprit";
  g.num_nodes = 10;
  for (NodeId v = 1; v < 10; ++v) {
    g.edges.emplace_back(v - 1, v);
  }
  const check::ShrinkResult shrunk = check::shrink(g, [](const check::TestGraph& c) {
    return std::find(c.edges.begin(), c.edges.end(),
                     check::Edge{3, 4}) != c.edges.end();
  });
  EXPECT_EQ(shrunk.graph.edges.size(), 1u);
  EXPECT_TRUE(shrunk.one_minimal);
  EXPECT_GT(shrunk.evaluations, 0u);
}

TEST(CheckShrink, CompactsAwayIsolatedNodes) {
  check::TestGraph g;
  g.name = "sparse-ids";
  g.num_nodes = 1000;
  g.edges = {{900, 901}, {10, 20}};
  const check::ShrinkResult shrunk = check::shrink(
      g, [](const check::TestGraph& c) { return !c.edges.empty(); });
  EXPECT_EQ(shrunk.graph.edges.size(), 1u);
  EXPECT_LE(shrunk.graph.num_nodes, 2u);
}

TEST(CheckShrink, RejectsPassingInput) {
  check::TestGraph g;
  g.num_nodes = 2;
  g.edges = {{0, 1}};
  EXPECT_THROW(
      check::shrink(g, [](const check::TestGraph&) { return false; }), Error);
}

TEST(CheckShrink, IsDeterministic) {
  check::TestGraph g = check::generate_graph(9, 10);
  auto predicate = [](const check::TestGraph& c) {
    return c.edges.size() >= 3;
  };
  const check::ShrinkResult a = check::shrink(g, predicate);
  const check::ShrinkResult b = check::shrink(g, predicate);
  EXPECT_EQ(a.graph.edges, b.graph.edges);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// ---------------------------------------------------------- differential

TEST(CheckDifferential, CleanGraphRunsWholeMatrix) {
  const check::TestGraph g = check::generate_graph(3, 8);  // overlap shape
  check::DiffOptions options;
  options.threads = 2;
  const check::DiffOutcome outcome = check::run_differential(g, options);
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
  // Full + restricted groups of 12 variants each: the per_k baseline, six
  // sweep and two more per_k variants, the reference engine (the graph is
  // small enough) and almost_exact at 1 and N threads.
  EXPECT_GE(outcome.variants_run, 14u);
  EXPECT_GT(outcome.invariants_checked, 0u);
  EXPECT_FALSE(outcome.fault_injected);
}

TEST(CheckDifferential, ReportsFirstDivergentLine) {
  // No fault injection here: corrupt a result by hand and make sure the
  // invariant path (not just the diff path) names the failing invariant.
  const Graph g = overlapping_cliques(4, 4, 2);
  cpm::Result result = run_engine(g);
  result.cpm.by_k[0].communities[0].nodes.pop_back();
  const check::Report report = check::check_invariants(g, result, {});
  ASSERT_FALSE(report.ok());
  EXPECT_FALSE(report.failures[0].invariant.empty());
  EXPECT_FALSE(report.failures[0].detail.empty());
}

}  // namespace
}  // namespace kcc
