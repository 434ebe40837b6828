// The single-sweep engine against the per-k oracle: set-identical
// communities for every k on a spread of graph families and seeds, the
// nesting invariant of the sweep's community tree, and the cpm::Engine
// facade that fronts the engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "common/error.h"
#include "common/set_ops.h"
#include "cpm/clique_index.h"
#include "cpm/cpm.h"
#include "cpm/engine.h"
#include "cpm/sweep_cpm.h"
#include "synth/as_topology.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::clique_table;
using testing::complete_graph;
using testing::expect_differential_ok;
using testing::expect_nesting;
using testing::expect_same_cpm;
using testing::expect_same_tree;
using testing::make_graph;
using testing::overlapping_cliques;
using testing::preferential_attachment_graph;
using testing::random_graph;

// Every pair of the one overlap join, collected in its sink order.
std::vector<CliqueOverlap> joined_pairs(const std::vector<NodeSet>& cliques,
                                        std::size_t num_nodes,
                                        std::size_t min_overlap) {
  std::vector<CliqueOverlap> out;
  for_each_clique_overlaps(cliques, num_nodes, min_overlap,
                           [&](std::span<const CliqueOverlap> pairs) {
                             out.insert(out.end(), pairs.begin(), pairs.end());
                           });
  return out;
}

void check_graph(const Graph& g, const std::string& label,
                 CpmOptions options = {}) {
  const CpmResult oracle = run_cpm(g, options);
  const SweepCpmResult sweep =
      run_sweep_cpm_on_cliques(g, oracle.cliques, options);
  expect_same_cpm(oracle, sweep.cpm, label);
  // Default-option graphs additionally go through the check:: differential
  // matrix (every engine × threads × budgets + the invariant oracles).
  if (options.min_k == 2 && options.max_k == 0) {
    expect_differential_ok(g, label);
  }
  if (sweep.cpm.max_k < sweep.cpm.min_k) return;  // nothing to arrange
  expect_nesting(sweep.cpm, sweep.tree, label);

  // The sweep's tree must agree with the one built from the per-k oracle.
  expect_same_tree(CommunityTree::build(oracle), sweep.tree, label);
}

// ------------------------------------------------ sweep vs per-k oracle

TEST(SweepCpm, MatchesOracleOnRandomGraphs) {
  // >= 10 independent seeds across two densities.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    check_graph(random_graph(60, 0.2, seed),
                "random n=60 p=0.2 seed=" + std::to_string(seed));
  }
  for (std::uint64_t seed = 7; seed <= 12; ++seed) {
    check_graph(random_graph(40, 0.4, seed),
                "random n=40 p=0.4 seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, MatchesOracleOnScaleFreeGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_graph(preferential_attachment_graph(150, 4, seed),
                "pa n=150 m=4 seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, MatchesOracleOnSyntheticEcosystem) {
  SynthParams params = SynthParams::test_scale();
  for (std::uint64_t seed : {7u, 42u}) {
    params.seed = seed;
    const Graph g = generate_ecosystem(params).topology.graph;
    check_graph(g, "synth seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, MatchesOracleOnStructuredGraphs) {
  check_graph(complete_graph(8), "K8");
  check_graph(overlapping_cliques(5, 5, 3), "two 5-cliques sharing 3");
  check_graph(overlapping_cliques(6, 4, 2), "6-clique and 4-clique sharing 2");
  check_graph(make_graph(4, {{0, 1}, {2, 3}}), "two disjoint edges");
}

TEST(SweepCpm, MatchesOracleWithRestrictedKRange) {
  const Graph g = random_graph(50, 0.3, 99);
  for (std::size_t min_k : {2u, 3u, 4u, 6u}) {
    CpmOptions options;
    options.min_k = min_k;
    check_graph(g, "min_k=" + std::to_string(min_k), options);
    options.max_k = min_k + 2;
    check_graph(g, "k in [" + std::to_string(min_k) + ", +2]", options);
  }
}

TEST(SweepCpm, EmptyRangeYieldsNoLevelsAndNoTree) {
  // Min_k above the largest clique: nothing percolates.
  CpmOptions options;
  options.min_k = 9;
  const SweepCpmResult sweep =
      run_sweep_cpm_on_cliques(complete_graph(5), {{0, 1, 2, 3, 4}}, options);
  EXPECT_LT(sweep.cpm.max_k, sweep.cpm.min_k);
  EXPECT_TRUE(sweep.cpm.by_k.empty());
  EXPECT_TRUE(sweep.tree.nodes().empty());
}

TEST(SweepCpm, RejectsBadInput) {
  CpmOptions options;
  options.min_k = 1;
  EXPECT_THROW(
      run_sweep_cpm_on_cliques(complete_graph(3), {{0, 1, 2}}, options),
      Error);
  EXPECT_THROW(
      run_sweep_cpm_on_cliques(complete_graph(3), {{2, 0, 1}}, {}), Error);
}

TEST(SweepCpm, PrejoinedPairsRunTheSameLoop) {
  // The join's flat pairs, in any order, dropped into the buckets: same
  // communities, ids and tree as the sweep's own join.
  const Graph g = random_graph(50, 0.3, 23);
  const std::vector<NodeSet> cliques = clique_table(g);
  const SweepCpmResult joined = run_sweep_cpm_on_cliques(g, cliques, {});
  std::vector<CliqueOverlap> pairs = joined_pairs(cliques, g.num_nodes(), 2);
  std::reverse(pairs.begin(), pairs.end());
  const SweepCpmResult prejoined =
      run_sweep_cpm_prejoined(g, cliques, std::move(pairs), {});
  expect_same_cpm(joined.cpm, prejoined.cpm, "prejoined");
  expect_same_tree(joined.tree, prejoined.tree, "prejoined");
  EXPECT_EQ(joined.stats.pairs, prejoined.stats.pairs);
}

TEST(SweepCpm, EmitsTheDistinctNodesOfEachCommunitysCliques) {
  // Dense random graphs: most nodes sit in many cliques of one community,
  // so its clique-node multiset repeats them many times over.
  for (std::uint64_t seed : {13u, 14u, 15u}) {
    const Graph g = random_graph(24, 0.7, seed);
    const std::vector<NodeSet> cliques = clique_table(g);
    const SweepCpmResult sweep = run_sweep_cpm_on_cliques(g, cliques, {});
    ASSERT_GE(sweep.cpm.max_k, 5u) << "seed " << seed;
    for (std::size_t k = sweep.cpm.min_k; k <= sweep.cpm.max_k; ++k) {
      for (const Community& community : sweep.cpm.at(k).communities) {
        NodeSet nodes;
        for (CliqueId c : community.clique_ids) {
          nodes.insert(nodes.end(), cliques[c].begin(), cliques[c].end());
        }
        sort_unique(nodes);
        EXPECT_EQ(community.nodes, nodes)
            << "seed " << seed << " k=" << k << " community " << community.id;
      }
    }
  }
}

TEST(SweepCpm, EveryEntryGivesTheSameCanonicalText) {
  const Graph g = random_graph(40, 0.45, 29);
  const std::vector<NodeSet> cliques = clique_table(g);
  const std::vector<CliqueOverlap> pairs =
      joined_pairs(cliques, g.num_nodes(), 3);
  const auto text = [](SweepCpmResult sweep) {
    cpm::Result result;
    result.cpm = std::move(sweep.cpm);
    result.tree = std::move(sweep.tree);
    result.has_tree = true;
    result.engine_name = "sweep";
    return cpm::canonical_text(result);
  };
  const std::string flat =
      text(run_sweep_cpm_prejoined(g, cliques, pairs, {}));
  // The same pairs backwards, endpoints swapped.
  std::vector<CliqueOverlap> reversed;
  for (auto p = pairs.rbegin(); p != pairs.rend(); ++p) {
    reversed.push_back({p->b, p->a, p->overlap});
  }
  EXPECT_EQ(flat, text(run_sweep_cpm_prejoined(g, cliques, reversed, {})));
  EXPECT_EQ(flat, text(run_sweep_cpm_on_cliques(g, cliques, {})));
  // The node-count form reads nothing else of the graph.
  EXPECT_EQ(flat, text(run_sweep_cpm_on_cliques(g.num_nodes(), cliques, {})));
}

TEST(SweepCpm, StatsReportPairsAndPeak) {
  const Graph g = overlapping_cliques(6, 5, 3);
  const SweepCpmResult sweep = run_sweep_cpm_on_cliques(g, clique_table(g), {});
  // Two overlapping maximal cliques -> exactly one overlap pair.
  EXPECT_EQ(sweep.stats.pairs, 1u);
  EXPECT_EQ(sweep.stats.buckets, 1u);
  EXPECT_EQ(sweep.stats.resident_pair_bytes_peak, 8u);

  // Every pair is resident at once after the join: 8 bytes each.
  const Graph dense = random_graph(80, 0.5, 5);
  const SweepCpmResult many =
      run_sweep_cpm_on_cliques(dense, clique_table(dense), {});
  EXPECT_GT(many.stats.buckets, 1u);
  EXPECT_EQ(many.stats.resident_pair_bytes_peak, many.stats.pairs * 8);
}

// ------------------------------------------- level 3 from shared edges

/// The graph whose maximal cliques are `cliques` (each given sorted).
Graph graph_of_cliques(std::size_t n, const std::vector<NodeSet>& cliques) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const NodeSet& q : cliques) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      for (std::size_t j = i + 1; j < q.size(); ++j) {
        edges.emplace_back(q[i], q[j]);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return Graph::from_edges(n, edges);
}

/// Runs the sweep on `g`'s clique table for one k range and checks it
/// against the reference engine (the literal k-clique-graph definition)
/// node set for node set, and its counters against a naive count over the
/// table: only pairs sharing >= max(3, min_k - 1) nodes are stored, and
/// level 3 (when it runs) unites once per extra holder of a shared edge.
void check_level_three(const Graph& g, std::size_t min_k, std::size_t max_k,
                       const std::string& label) {
  SCOPED_TRACE(label + " min_k=" + std::to_string(min_k) +
               " max_k=" + std::to_string(max_k));
  const std::vector<NodeSet> table = clique_table(g);
  CpmOptions options;
  options.min_k = min_k;
  options.max_k = max_k;
  const SweepCpmResult sweep = run_sweep_cpm_on_cliques(g, table, options);

  cpm::Options ref_options;
  ref_options.engine = "reference";
  ref_options.min_k = min_k;
  ref_options.max_k = max_k;
  const cpm::Result ref = cpm::Engine(ref_options).run(g);
  for (std::size_t k = min_k; k <= sweep.cpm.max_k; ++k) {
    const std::size_t ref_count = ref.cpm.has_k(k) ? ref.cpm.at(k).count() : 0;
    ASSERT_EQ(sweep.cpm.at(k).count(), ref_count) << "k=" << k;
    for (CommunityId id = 0; id < ref_count; ++id) {
      EXPECT_EQ(sweep.cpm.at(k).communities[id].nodes,
                ref.cpm.at(k).communities[id].nodes)
          << "k=" << k << " community " << id;
    }
  }

  std::size_t max_size = 0;
  for (const NodeSet& q : table) max_size = std::max(max_size, q.size());
  const bool levels_run = sweep.cpm.max_k >= 3;
  const bool level_three_runs = levels_run && min_k <= 3;
  const std::size_t min_overlap = std::max<std::size_t>(3, min_k - 1);
  std::uint64_t stored = 0;
  for (std::size_t a = 0; a < table.size(); ++a) {
    for (std::size_t b = a + 1; b < table.size(); ++b) {
      if (intersection_size(table[a], table[b]) >= min_overlap) ++stored;
    }
  }
  std::uint64_t links = 0;
  for (const auto& [u, v] : g.edges()) {
    std::uint64_t holders = 0;
    for (const NodeSet& q : table) {
      if (q.size() >= 3 && contains(q, u) && contains(q, v)) ++holders;
    }
    if (holders > 1) links += holders - 1;
  }
  EXPECT_EQ(sweep.stats.pairs, levels_run ? stored : 0);
  EXPECT_EQ(sweep.stats.resident_pair_bytes_peak, 8 * sweep.stats.pairs);
  EXPECT_EQ(sweep.stats.edge_links, level_three_runs ? links : 0);
  if (level_three_runs) {
    // Every merge removes one component among the cliques live at k = 3.
    std::uint64_t live = 0;
    for (const NodeSet& q : table) live += q.size() >= 3 ? 1 : 0;
    EXPECT_EQ(sweep.stats.merges, live - sweep.cpm.at(3).count());
  }
  EXPECT_LE(sweep.stats.merges, sweep.stats.pairs + sweep.stats.edge_links);
}

void check_level_three_ranges(const Graph& g, const std::string& label) {
  for (std::size_t min_k : {2u, 3u, 4u}) {
    check_level_three(g, min_k, 0, label);
  }
  check_level_three(g, 2, 3, label);  // a cap: levels above 3 not emitted
  check_level_three(g, 3, 4, label);
}

TEST(SweepCpm, LevelThreeChainsThroughSharedEdges) {
  // A strip of triangles, each tied to the next by one edge only: one
  // community at k = 3, and every link is an edge link, not a stored pair.
  const std::vector<NodeSet> strip{
      {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 6}};
  const Graph strip_graph = graph_of_cliques(7, strip);
  check_level_three_ranges(strip_graph, "triangle strip");
  const SweepCpmResult strip_sweep =
      run_sweep_cpm_on_cliques(strip_graph, clique_table(strip_graph), {});
  EXPECT_EQ(strip_sweep.stats.pairs, 0u);
  EXPECT_EQ(strip_sweep.stats.edge_links, 4u);
  EXPECT_EQ(strip_sweep.stats.merges, 4u);
  ASSERT_EQ(strip_sweep.cpm.at(3).count(), 1u);
  EXPECT_EQ(strip_sweep.cpm.at(3).communities[0].nodes,
            (NodeSet{0, 1, 2, 3, 4, 5, 6}));

  // A K5 tied to a triangle by the edge (3, 4): joined at k = 3 only.
  const std::vector<NodeSet> tied{{0, 1, 2, 3, 4}, {3, 4, 5}};
  const Graph tied_graph = graph_of_cliques(6, tied);
  check_level_three_ranges(tied_graph, "K5 + triangle on one edge");
  const SweepCpmResult tied_sweep =
      run_sweep_cpm_on_cliques(tied_graph, clique_table(tied_graph), {});
  EXPECT_EQ(tied_sweep.stats.pairs, 0u);
  EXPECT_EQ(tied_sweep.stats.edge_links, 1u);
  ASSERT_EQ(tied_sweep.cpm.at(3).count(), 1u);
  ASSERT_EQ(tied_sweep.cpm.at(4).count(), 1u);
  EXPECT_EQ(tied_sweep.cpm.at(4).communities[0].nodes,
            (NodeSet{0, 1, 2, 3, 4}));

  // Two cliques sharing one node hold no common edge: apart at k = 3.
  const std::vector<NodeSet> bowtie{{0, 1, 2, 3}, {3, 4, 5}};
  const Graph bowtie_graph = graph_of_cliques(6, bowtie);
  check_level_three_ranges(bowtie_graph, "cliques sharing one node");
  const SweepCpmResult bowtie_sweep =
      run_sweep_cpm_on_cliques(bowtie_graph, clique_table(bowtie_graph), {});
  EXPECT_EQ(bowtie_sweep.stats.edge_links, 0u);
  EXPECT_EQ(bowtie_sweep.cpm.at(3).count(), 2u);

  // Random graphs, sparse (mostly edge links) and dense (mostly pairs).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_level_three_ranges(random_graph(30, 0.15, seed),
                             "random n=30 p=0.15 seed=" + std::to_string(seed));
    check_level_three_ranges(random_graph(18, 0.5, seed),
                             "random n=18 p=0.5 seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, PrejoinedDropsPairsBelowTheStoredOverlap) {
  // The prejoined entry takes pairs of any overlap and keeps the same
  // ones the sweep's own join stores; level 3 comes from shared edges.
  const Graph g = random_graph(40, 0.25, 31);
  const std::vector<NodeSet> cliques = clique_table(g);
  const SweepCpmResult joined = run_sweep_cpm_on_cliques(g, cliques, {});
  std::vector<CliqueOverlap> pairs = joined_pairs(cliques, g.num_nodes(), 1);
  const SweepCpmResult prejoined =
      run_sweep_cpm_prejoined(g, cliques, std::move(pairs), {});
  expect_same_cpm(joined.cpm, prejoined.cpm, "prejoined, overlap >= 1");
  EXPECT_EQ(prejoined.stats.pairs, joined.stats.pairs);
  EXPECT_EQ(prejoined.stats.edge_links, joined.stats.edge_links);
  EXPECT_EQ(prejoined.stats.merges, joined.stats.merges);
}

TEST(SweepCpm, PrejoinedRejectsAnOverlapNoCliquePairCanHave) {
  // Two distinct maximal cliques of size 3 share at most 2 nodes.
  CpmOptions options;
  options.min_k = 3;
  try {
    run_sweep_cpm_prejoined(complete_graph(4), {{0, 1, 2}, {1, 2, 3}},
                            {{0, 1, 3}}, options);
    FAIL() << "expected kcc::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "run_sweep_cpm_prejoined: overlap 3 exceeds the clique-size "
              "bound");
  }
}

TEST(SweepCpm, RejectionMessagesNameTheCaller) {
  const auto error_of = [](const std::vector<NodeSet>& cliques,
                           std::size_t min_k) -> std::string {
    CpmOptions options;
    options.min_k = min_k;
    try {
      run_sweep_cpm_on_cliques(complete_graph(3), cliques, options);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of({{0, 1, 2}}, 1),
            "run_sweep_cpm_on_cliques: min_k must be >= 2");
  EXPECT_EQ(error_of({{0, 1, 2}, {2, 0, 1}}, 2),
            "run_sweep_cpm_on_cliques: cliques must be sorted and of size "
            ">= 2");
  EXPECT_EQ(error_of({{1}}, 2),
            "run_sweep_cpm_on_cliques: cliques must be sorted and of size "
            ">= 2");
  EXPECT_EQ(error_of({{0, 1, 7}}, 2),
            "run_sweep_cpm_on_cliques: clique node 7 is out of range for a "
            "graph of 3 nodes");
}

// ------------------------------------------------------- engine facade

TEST(CpmEngine, SweepAndPerKDispatchAgree) {
  const Graph g = random_graph(50, 0.3, 5);
  cpm::Options options;
  options.engine = "sweep";
  const cpm::Result sweep = cpm::Engine(options).run(g);
  options.engine = "per_k";
  const cpm::Result per_k = cpm::Engine(options).run(g);

  expect_same_cpm(per_k.cpm, sweep.cpm, "engine dispatch");
  ASSERT_TRUE(sweep.has_tree);
  ASSERT_TRUE(per_k.has_tree);
  EXPECT_EQ(sweep.tree.nodes().size(), per_k.tree.nodes().size());
  EXPECT_EQ(sweep.engine_name, "sweep");
  EXPECT_EQ(per_k.engine_name, "per_k");
  EXPECT_EQ(sweep.exactness, cpm::Exactness::kExact);
  EXPECT_EQ(per_k.exactness, cpm::Exactness::kExact);
}

TEST(CpmEngine, ReferenceEngineAgreesOnNodeSets) {
  const Graph g = overlapping_cliques(5, 5, 3);
  cpm::Options options;
  options.engine = "reference";
  const cpm::Result ref = cpm::Engine(options).run(g);
  options.engine = "sweep";
  const cpm::Result sweep = cpm::Engine(options).run(g);

  ASSERT_EQ(ref.cpm.min_k, sweep.cpm.min_k);
  ASSERT_EQ(ref.cpm.max_k, sweep.cpm.max_k);
  for (std::size_t k = ref.cpm.min_k; k <= ref.cpm.max_k; ++k) {
    ASSERT_EQ(ref.cpm.at(k).count(), sweep.cpm.at(k).count()) << "k=" << k;
    for (CommunityId id = 0; id < ref.cpm.at(k).count(); ++id) {
      EXPECT_EQ(ref.cpm.at(k).communities[id].nodes,
                sweep.cpm.at(k).communities[id].nodes)
          << "k=" << k;
    }
  }
  // The reference result carries no clique ids; its tree comes from the
  // containment fallback and must still nest correctly.
  ASSERT_TRUE(ref.has_tree);
  expect_nesting(ref.cpm, ref.tree, "reference tree");
}

// The canonical text, map lines included, pinned literally: `kcc cpm --out`
// prints no map line, so only this test fixes its bytes. A K4, two
// triangles sharing an edge and a pendant edge give undersized cliques
// (`-`) at k = 3 and 4 and a community of two cliques at k = 3.
TEST(CpmEngine, CanonicalTextPinsTheMapLines) {
  const Graph g =
      make_graph(8, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4},
                     {3, 5}, {4, 5}, {4, 6}, {5, 6}, {6, 7}});
  const std::string tree_lines =
      "tree 4\n"
      "t 0 k=2 id=0 size=8 parent=-1 main=1 ch 1 2\n"
      "t 1 k=3 id=0 size=4 parent=0 main=1 ch 3\n"
      "t 2 k=3 id=1 size=4 parent=0 main=0 ch\n"
      "t 3 k=4 id=0 size=4 parent=1 main=1 ch\n";
  cpm::Options options;
  options.threads = 1;
  cpm::Result result = cpm::Engine(options).run(g);
  EXPECT_EQ(cpm::canonical_text(result),
            "exactness exact\n"
            "k 2 4\n"
            "cliques 4\n"
            "q 0 6 7\n"
            "q 1 4 5 6\n"
            "q 2 3 4 5\n"
            "q 3 0 1 2 3\n"
            "level 2 1\n"
            "m 0 n 0 1 2 3 4 5 6 7 c 0 1 2 3\n"
            "map 0 0 0 0\n"
            "level 3 2\n"
            "m 0 n 0 1 2 3 c 3\n"
            "m 1 n 3 4 5 6 c 1 2\n"
            "map - 1 1 0\n"
            "level 4 1\n"
            "m 0 n 0 1 2 3 c 3\n"
            "map - - - 0\n" +
                tree_lines);

  // The map follows the clique ids through a lexicographic reorder.
  cpm::canonicalise_clique_order(result);
  EXPECT_EQ(cpm::canonical_text(result),
            "exactness exact\n"
            "k 2 4\n"
            "cliques 4\n"
            "q 0 0 1 2 3\n"
            "q 1 3 4 5\n"
            "q 2 4 5 6\n"
            "q 3 6 7\n"
            "level 2 1\n"
            "m 0 n 0 1 2 3 4 5 6 7 c 0 1 2 3\n"
            "map 0 0 0 0\n"
            "level 3 2\n"
            "m 0 n 0 1 2 3 c 0\n"
            "m 1 n 3 4 5 6 c 1 2\n"
            "map 0 1 1 -\n"
            "level 4 1\n"
            "m 0 n 0 1 2 3 c 0\n"
            "map 0 - - -\n" +
                tree_lines);

  // A reference result has no clique table: every map line is empty.
  options.engine = "reference";
  EXPECT_EQ(cpm::canonical_text(cpm::Engine(options).run(g)),
            "exactness exact\n"
            "k 2 4\n"
            "cliques 0\n"
            "level 2 1\n"
            "m 0 n 0 1 2 3 4 5 6 7 c\n"
            "map\n"
            "level 3 2\n"
            "m 0 n 0 1 2 3 c\n"
            "m 1 n 3 4 5 6 c\n"
            "map\n"
            "level 4 1\n"
            "m 0 n 0 1 2 3 c\n"
            "map\n" +
                tree_lines);
}

TEST(CpmEngine, PerKLoopStopsAtTheFirstEmptyLevel) {
  // A max_k far past the largest clique must not walk every empty level.
  cpm::Options options;
  options.engine = "reference";
  options.max_k = 2'000'000'000;
  const cpm::Result ref = cpm::Engine(options).run(complete_graph(4));
  EXPECT_EQ(ref.cpm.max_k, 4u);
  EXPECT_EQ(ref.cpm.by_k.size(), 3u);

  const Graph g = overlapping_cliques(4, 4, 2);
  const EdgeWeights weights(g, std::vector<double>(g.num_edges(), 1.0));
  options.engine = "sweep";
  options.intensity_threshold = 1.0;
  const cpm::Result weighted = cpm::Engine(options).run_weighted(g, weights);
  EXPECT_EQ(weighted.cpm.max_k, 4u);
}

TEST(CpmEngine, BuildTreeCanBeDisabled) {
  cpm::Options options;
  options.build_tree = false;
  const cpm::Result result = cpm::Engine(options).run(complete_graph(6));
  EXPECT_FALSE(result.has_tree);
  EXPECT_EQ(result.cpm.max_k, 6u);
}

TEST(CpmEngine, WeightedRunFiltersAndNeverBuildsATree) {
  const Graph g = overlapping_cliques(4, 4, 2);
  // All edge weights 1 except a heavy triangle {0, 1, 2}.
  std::vector<double> per_edge;
  for (const auto& [u, v] : g.edges()) {
    per_edge.push_back(u <= 2 && v <= 2 ? 4.0 : 1.0);
  }
  const EdgeWeights weights(g, std::move(per_edge));

  cpm::Options options;
  options.min_k = 3;
  options.max_k = 3;
  options.intensity_threshold = 2.0;
  const cpm::Result result = cpm::Engine(options).run_weighted(g, weights);
  EXPECT_FALSE(result.has_tree);
  ASSERT_TRUE(result.cpm.has_k(3));
  ASSERT_EQ(result.cpm.at(3).count(), 1u);
  EXPECT_EQ(result.cpm.at(3).communities[0].nodes, (NodeSet{0, 1, 2}));
}

TEST(CpmEngine, ValidatesOptions) {
  cpm::Options options;
  options.min_k = 1;
  EXPECT_THROW(cpm::Engine{options}, Error);
  options.min_k = 2;
  options.min_clique_size = 1;
  EXPECT_THROW(cpm::Engine{options}, Error);
}

TEST(CpmEngine, UnknownEngineNamesListTheRegisteredOnes) {
  // The retired stream engine is an unknown name like any other; the
  // error lists what is registered.
  try {
    cpm::engine_info("stream");
    FAIL() << "expected kcc::Error for the retired stream engine";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown engine 'stream' (" + cpm::engine_names_joined() + ")");
  }
  EXPECT_EQ(cpm::engine_names_joined(),
            "sweep|per_k|incremental|almost_exact|reference");
}

TEST(CpmEngine, OptionsFromCliRejectsBadValues) {
  const auto error_of = [](const char* flag) -> std::string {
    const char* argv[] = {"prog", flag};
    try {
      cpm::options_from_cli(CliArgs(2, argv, cpm::engine_cli_flags()));
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  // A negative count would wrap to a huge std::size_t.
  EXPECT_EQ(error_of("--k-min=-1"),
            "options_from_cli: --k-min must be >= 0, got -1");
  EXPECT_EQ(error_of("--k-max=-1"),
            "options_from_cli: --k-max must be >= 0, got -1");
  EXPECT_EQ(error_of("--threads=-1"),
            "options_from_cli: --threads must be >= 0, got -1");
  EXPECT_EQ(error_of("--k-max=0"), "no error");
  EXPECT_NE(error_of("--engine=stream"), "no error");

  // kcc's legacy --max-k alias lands in the defaults already wrapped.
  cpm::Options wrapped;
  wrapped.max_k = static_cast<std::size_t>(-1);
  const char* bare[] = {"prog"};
  EXPECT_THROW(cpm::options_from_cli(
                   CliArgs(1, bare, cpm::engine_cli_flags()), wrapped),
               Error);
}

TEST(CpmEngine, OptionsFromCliAppliesSharedFlags) {
  const char* argv[] = {"prog", "--k-min=3", "--k-max=7", "--engine=per_k",
                        "--threads=2"};
  const CliArgs args(5, argv, cpm::engine_cli_flags());
  const cpm::Options options = cpm::options_from_cli(args);
  EXPECT_EQ(options.min_k, 3u);
  EXPECT_EQ(options.max_k, 7u);
  EXPECT_EQ(options.threads, 2u);
  EXPECT_EQ(options.engine, "per_k");

  // Defaults pass through untouched when no flag is given.
  const char* bare[] = {"prog"};
  cpm::Options defaults;
  defaults.min_k = 4;
  const cpm::Options kept =
      cpm::options_from_cli(CliArgs(1, bare, cpm::engine_cli_flags()),
                            defaults);
  EXPECT_EQ(kept.min_k, 4u);
  EXPECT_EQ(kept.engine, "sweep");
}

}  // namespace
}  // namespace kcc
