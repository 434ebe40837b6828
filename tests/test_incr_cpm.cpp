// Unit tests for the incremental CPM engine: digest identity with a
// from-scratch sweep after add-only / remove-only / mixed batches, batch
// inversion, strict batch validation, restricted k ranges and both clique
// backends. The randomized cross-family coverage lives in the
// check::churn_differential harness (kcc_fuzz --schedules); these are the
// deterministic corner cases.

#include "cpm/incr_cpm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/timer.h"
#include "cpm/engine.h"
#include "obs/report.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using cpm::EdgeBatch;
using cpm::IncrementalCpm;

/// Canonical digest of a from-scratch sweep on `g`, clique table
/// re-sorted lexicographically to match the incremental serialization.
std::string sweep_digest(const Graph& g, cpm::Options options = {}) {
  options.engine = "sweep";
  cpm::Result fresh = cpm::Engine(options).run(g);
  cpm::canonicalise_clique_order(fresh);
  return cpm::canonical_text(fresh);
}

std::string digest(const IncrementalCpm& state) {
  return cpm::canonical_text(state.result());
}

/// Mutable edge-set mirror of the incremental state, for rebuilding the
/// from-scratch comparison graph after each batch.
struct Mirror {
  std::size_t n = 0;
  std::vector<std::pair<NodeId, NodeId>> edges;

  explicit Mirror(const Graph& g) : n(g.num_nodes()), edges(g.edges()) {}

  void apply(const EdgeBatch& batch) {
    for (const auto& [u, v] : batch.remove) {
      const auto lo = std::min(u, v), hi = std::max(u, v);
      edges.erase(std::remove_if(edges.begin(), edges.end(),
                                 [&](const std::pair<NodeId, NodeId>& e) {
                                   return std::min(e.first, e.second) == lo &&
                                          std::max(e.first, e.second) == hi;
                                 }),
                  edges.end());
    }
    for (const auto& e : batch.add) {
      edges.push_back(e);
      n = std::max<std::size_t>(
          n, static_cast<std::size_t>(std::max(e.first, e.second)) + 1);
    }
  }

  Graph build() const { return Graph::from_edges(n, edges); }
};

/// Draws `count` absent non-loop pairs from the mirror's node universe.
EdgeBatch add_batch(const Mirror& mirror, std::size_t count, Rng& rng) {
  EdgeBatch batch;
  const std::size_t n = std::max<std::size_t>(mirror.n, 2);
  auto present = [&](NodeId u, NodeId v) {
    for (const auto& e : mirror.edges) {
      if (std::minmax(e.first, e.second) == std::minmax(u, v)) return true;
    }
    for (const auto& e : batch.add) {
      if (std::minmax(e.first, e.second) == std::minmax(u, v)) return true;
    }
    return false;
  };
  while (batch.add.size() < count) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v || present(u, v)) continue;
    batch.add.emplace_back(std::min(u, v), std::max(u, v));
  }
  return batch;
}

/// Draws `count` present edges, without replacement.
EdgeBatch remove_batch(const Mirror& mirror, std::size_t count, Rng& rng) {
  EdgeBatch batch;
  std::vector<std::pair<NodeId, NodeId>> pool = mirror.edges;
  batch.remove = rng.sample_without_replacement(
      pool, std::min<std::size_t>(count, pool.size()));
  return batch;
}

/// Applies `batch` to both the live state and the mirror, then asserts
/// digest identity against a from-scratch sweep of the mirror.
void apply_and_check(IncrementalCpm& state, Mirror& mirror,
                     const EdgeBatch& batch, const cpm::Options& options,
                     const std::string& label) {
  state.apply(batch);
  mirror.apply(batch);
  ASSERT_EQ(digest(state), sweep_digest(mirror.build(), options)) << label;
}

TEST(IncrCpm, BootstrapMatchesSweepAcrossFamilies) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"empty", Graph::from_edges(0, {})},
      {"k5", testing::complete_graph(5)},
      {"cycle", testing::cycle_graph(9)},
      {"er", testing::random_graph(24, 0.3, 11)},
      {"pa", testing::preferential_attachment_graph(40, 3, 7)},
      {"overlap", testing::overlapping_cliques(6, 5, 3)},
  };
  for (const auto& [name, g] : graphs) {
    const IncrementalCpm state(g);
    EXPECT_EQ(digest(state), sweep_digest(g)) << name;
  }
}

TEST(IncrCpm, AddOnlyBatchesKeepDigestIdentity) {
  const Graph g = testing::random_graph(20, 0.15, 3);
  Mirror mirror(g);
  IncrementalCpm state(g);
  Rng rng(17);
  for (int b = 0; b < 5; ++b) {
    apply_and_check(state, mirror, add_batch(mirror, 4, rng), {},
                    "add batch " + std::to_string(b));
  }
}

TEST(IncrCpm, RemoveOnlyBatchesKeepDigestIdentity) {
  const Graph g = testing::random_graph(18, 0.4, 5);
  Mirror mirror(g);
  IncrementalCpm state(g);
  Rng rng(23);
  for (int b = 0; b < 5; ++b) {
    apply_and_check(state, mirror, remove_batch(mirror, 5, rng), {},
                    "remove batch " + std::to_string(b));
  }
}

TEST(IncrCpm, RemoveThenReAddAcrossBatchesRoundTrips) {
  // A remove-then-re-add round trip is two batches (one batch rejects the
  // same pair on both sides) and must land back on the original digest.
  const Graph g = testing::overlapping_cliques(5, 5, 2);
  IncrementalCpm state(g);
  const std::string before = digest(state);
  const auto e = g.edges().front();
  EdgeBatch removes, adds;
  removes.remove.push_back(e);
  adds.add.push_back(e);
  state.apply(removes);
  state.apply(adds);
  EXPECT_EQ(digest(state), before);
  EXPECT_EQ(state.num_edges(), g.num_edges());
}

TEST(IncrCpm, BatchThenInverseRestoresDigest) {
  const Graph g = testing::preferential_attachment_graph(30, 3, 19);
  Mirror mirror(g);
  IncrementalCpm state(g);
  Rng rng(31);
  const std::string before = digest(state);

  EdgeBatch batch = add_batch(mirror, 3, rng);
  EdgeBatch removes = remove_batch(mirror, 4, rng);
  batch.remove = std::move(removes.remove);

  state.apply(batch);
  EXPECT_NE(digest(state), before) << "batch should change the structure";
  state.apply(batch.inverse());
  EXPECT_EQ(digest(state), before);
  EXPECT_EQ(state.batches_applied(), 2u);
}

/// The table result() emits is the kept lexicographic order: strictly
/// increasing (no stale repeat) and exactly the mirrored graph's maximal
/// cliques.
void expect_kept_order(const IncrementalCpm& state, const Mirror& mirror,
                       const std::string& label) {
  const std::vector<NodeSet> table = state.result().cpm.cliques;
  for (std::size_t i = 1; i < table.size(); ++i) {
    ASSERT_LT(table[i - 1], table[i]) << label << ": table row " << i;
  }
  std::vector<NodeSet> alive = testing::clique_table(mirror.build());
  std::sort(alive.begin(), alive.end());
  EXPECT_EQ(table, alive) << label;
}

TEST(IncrCpm, KeptCliqueOrderSurvivesSlotReuseAndShortLivedCliques) {
  // The triangle {0, 1, 2} plus the edge (2, 3). Removing (0, 1) retires
  // {0, 1, 2} and inserts its fragments {0, 2} and {1, 2}, the first into
  // the slot just freed. Adding (0, 3) in the same batch absorbs the
  // newborn {0, 2} and the old {2, 3} into {0, 2, 3}: a clique born and
  // retired within one batch, whose freed slot is reused again.
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  Mirror mirror(g);
  IncrementalCpm state(g);
  expect_kept_order(state, mirror, "bootstrap");
  EdgeBatch batch;
  batch.remove.emplace_back(0, 1);
  batch.add.emplace_back(0, 3);
  apply_and_check(state, mirror, batch, {}, "reuse");
  expect_kept_order(state, mirror, "reuse");
  apply_and_check(state, mirror, batch.inverse(), {}, "inverse");
  expect_kept_order(state, mirror, "inverse");

  // Mixed batches on a dense graph retire and create many cliques each.
  const Graph dense = testing::random_graph(30, 0.35, 5);
  Mirror dense_mirror(dense);
  IncrementalCpm dense_state(dense);
  Rng rng(9);
  for (int b = 0; b < 6; ++b) {
    EdgeBatch mixed = remove_batch(dense_mirror, 4, rng);
    mixed.add = add_batch(dense_mirror, 4, rng).add;
    const std::string label = "mixed batch " + std::to_string(b);
    apply_and_check(dense_state, dense_mirror, mixed, {}, label);
    expect_kept_order(dense_state, dense_mirror, label);
  }
}

TEST(IncrCpm, LevelThreeOnlyLinksFollowChurn) {
  // Two K4s, A = {0..3} and B = {4..7}, with the edges (3, 4) and (2, 5)
  // between them. Adding (3, 5) creates the triangles {2, 3, 5} and
  // {3, 4, 5}, which chain A to B through shared edges only: one community
  // at k = 3 instead of two, and no new 4-clique, so k = 4 is unchanged.
  // No clique pair of the link shares 3 nodes, so the overlap lists never
  // see it; removing (3, 5) splits the communities again.
  std::vector<std::pair<NodeId, NodeId>> edges{{3, 4}, {2, 5}};
  for (NodeId base : {0u, 4u}) {
    for (NodeId i = 0; i < 4; ++i) {
      for (NodeId j = i + 1; j < 4; ++j) edges.emplace_back(base + i, base + j);
    }
  }
  const Graph split = Graph::from_edges(8, edges);
  edges.emplace_back(3, 5);
  const Graph joined = Graph::from_edges(8, edges);
  EdgeBatch bridge;
  bridge.add.emplace_back(3, 5);

  const auto communities = [](const IncrementalCpm& state, std::size_t k) {
    const cpm::Result result = state.result();
    std::vector<NodeSet> nodes;
    for (const Community& c : result.cpm.at(k).communities) {
      nodes.push_back(c.nodes);
    }
    return nodes;
  };
  for (std::size_t min_k : {2u, 3u, 4u}) {
    cpm::Options options;
    options.min_k = min_k;
    const std::string label = "min_k=" + std::to_string(min_k);
    const bool has_three = min_k <= 3;

    // Add, then the inverse batch, from the split graph.
    Mirror mirror(split);
    IncrementalCpm state(split, options);
    const std::string before = digest(state);
    const std::vector<NodeSet> four = communities(state, 4);
    if (has_three) {
      EXPECT_EQ(communities(state, 3).size(), 2u) << label;
    }
    apply_and_check(state, mirror, bridge, options, label + " add");
    if (has_three) {
      EXPECT_EQ(communities(state, 3).size(), 1u) << label;
    }
    EXPECT_EQ(communities(state, 4), four) << label;
    apply_and_check(state, mirror, bridge.inverse(), options,
                    label + " inverse of add");
    EXPECT_EQ(digest(state), before) << label;

    // Remove, then the inverse batch, from the joined graph.
    Mirror joined_mirror(joined);
    IncrementalCpm joined_state(joined, options);
    const std::string joined_before = digest(joined_state);
    apply_and_check(joined_state, joined_mirror, bridge.inverse(), options,
                    label + " remove");
    if (has_three) {
      EXPECT_EQ(communities(joined_state, 3).size(), 2u) << label;
    }
    EXPECT_EQ(communities(joined_state, 4), four) << label;
    apply_and_check(joined_state, joined_mirror, bridge, options,
                    label + " inverse of remove");
    EXPECT_EQ(digest(joined_state), joined_before) << label;
  }
}

// ------------------------------------------------------- the remove path
//
// A removal settles each fragment Q \ {x} of a dying clique Q by one
// witness rule: it is kept unless a clique other than Q holds all of it.
// Each case below is checked for digest identity and for the exact clique
// count after the removal.

/// The graph on `n` nodes whose edges make each of `cliques` a clique.
Graph union_of_cliques(std::size_t n, const std::vector<NodeSet>& cliques) {
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

/// Removes `edge`, checks digest identity and the clique count, then adds
/// it back.
void remove_and_check(const Graph& g, std::pair<NodeId, NodeId> edge,
                      std::size_t cliques_after, const std::string& label) {
  Mirror mirror(g);
  IncrementalCpm state(g);
  EdgeBatch batch;
  batch.remove.push_back(edge);
  apply_and_check(state, mirror, batch, {}, label);
  EXPECT_EQ(state.num_cliques(), cliques_after) << label;
  apply_and_check(state, mirror, batch.inverse(), {}, label + " inverse");
}

TEST(IncrCpm, DyingNeighborWithOneNodeLessIsNoWitness) {
  // Q = {0, 1, 2, 3, 4} and D = {0, 1, 2, 3, 5} share |Q| - 1 nodes and
  // both hold the removed edge (0, 1). D is on Q's overlap list with
  // overlap |Q| - 1, but it dies too, so it proves no fragment of Q
  // non-maximal: all four fragments survive, both of each parent.
  const Graph g = union_of_cliques(6, {{0, 1, 2, 3, 4}, {0, 1, 2, 3, 5}});
  remove_and_check(g, {0, 1}, 4, "dying neighbor");
}

TEST(IncrCpm, SurvivingNeighborWitnessesOneFragment) {
  // Q = {0, 1, 2, 3, 4}; W = {1, 2, 3, 4, 5} misses only node 0 of Q and
  // survives the removal of (0, 1), so Q \ {0} is not maximal and only
  // Q \ {1} = {0, 2, 3, 4} is born.
  const Graph g = union_of_cliques(6, {{0, 1, 2, 3, 4}, {1, 2, 3, 4, 5}});
  remove_and_check(g, {0, 1}, 2, "witness");
  // With a second witness for the other fragment, neither survives.
  const Graph both =
      union_of_cliques(7, {{0, 1, 2, 3, 4}, {1, 2, 3, 4, 5}, {0, 2, 3, 4, 6}});
  remove_and_check(both, {0, 1}, 2, "two witnesses");
}

TEST(IncrCpm, TriangleParentKeepsTheNeighborhoodScan) {
  // |Q| = 3: the fragments are edges, whose witnesses share only 2 nodes
  // with Q and are on no overlap list. {1, 2} lies in {1, 2, 3}; {0, 2}
  // survives.
  const Graph g = union_of_cliques(4, {{0, 1, 2}, {1, 2, 3}});
  remove_and_check(g, {0, 1}, 2, "triangle");
  // No witness at all: both edge fragments survive.
  remove_and_check(union_of_cliques(3, {{0, 1, 2}}), {0, 1}, 2,
                   "lone triangle");
}

TEST(IncrCpm, FragmentsOfTwoParentsLinkByTheirDroppedEndpoints) {
  // Q = {0, 1} + {2, 3, 4} + {5, 6}, D = {0, 1} + {2, 3, 4} + {7, 8}:
  // |Q ∩ D| = 5. Removing (0, 1) leaves four fragments of 6 nodes: the two
  // of one parent share 5, two dropping the same endpoint share 4, two
  // dropping different ones share 3. At k = 6 (overlap >= 5) only the
  // parents' own pairs link, and at k = 5 the same-endpoint pairs join
  // them.
  const Graph g =
      union_of_cliques(9, {{0, 1, 2, 3, 4, 5, 6}, {0, 1, 2, 3, 4, 7, 8}});
  remove_and_check(g, {0, 1}, 4, "two parents");
  Mirror mirror(g);
  IncrementalCpm state(g);
  EdgeBatch batch;
  batch.remove.emplace_back(0, 1);
  apply_and_check(state, mirror, batch, {}, "two parents levels");
  const cpm::Result result = state.result();
  EXPECT_EQ(result.cpm.at(6).communities.size(), 2u);
  EXPECT_EQ(result.cpm.at(5).communities.size(), 1u);

  // Q = {0, 1, 2, 3, 4, 5} and D = {0, 1, 2, 3, 6, 7} share 4, with a
  // witness killing Q \ {1} and another killing D \ {0}: the fragments
  // left, Q \ {0} and D \ {1}, drop different endpoints and share 2.
  const Graph cross = union_of_cliques(
      10, {{0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 6, 7}, {0, 2, 3, 4, 5, 8},
           {1, 2, 3, 6, 7, 9}});
  remove_and_check(cross, {0, 1}, 4, "cross endpoints");
}

TEST(IncrCpm, RemovingALoneEdgeKeepsNoSingleNodeClique) {
  // {0, 1} is node 0's only clique; node 1 also lies in {1, 2, 3}. The
  // removal leaves {0} with no clique at all, and the materialized result
  // hides a one-node clique (the clique-size filter), so only the count
  // shows whether one was kept.
  const Graph g = union_of_cliques(4, {{0, 1}, {1, 2, 3}});
  remove_and_check(g, {0, 1}, 1, "lone edge");
  // Both endpoints isolated afterwards: the table is empty.
  remove_and_check(union_of_cliques(2, {{0, 1}}), {0, 1}, 0, "single edge");
}

TEST(IncrCpm, EdgeFragmentWitnessedByACliqueSharingOnlyThatEdge) {
  // Q = {0, 1, 2}; W = {1, 2, 3, 4, 5} shares only {1, 2} with Q, so it
  // witnesses Q \ {0} and Q \ {1} = {0, 2} alone is born. Node 2 also
  // heads a fan of triangles, so the fragment's members have clique lists
  // of different lengths.
  const std::vector<NodeSet> cliques{
      {0, 1, 2}, {1, 2, 3, 4, 5}, {2, 6, 7}, {2, 7, 8}, {2, 8, 9}};
  const Graph g = union_of_cliques(10, cliques);
  remove_and_check(g, {0, 1}, 5, "edge witness");
  // The same with the endpoints named the other way round.
  EdgeBatch batch;
  batch.remove.emplace_back(1, 0);
  Mirror mirror(g);
  IncrementalCpm state(g);
  apply_and_check(state, mirror, batch, {}, "edge witness swapped");
  EXPECT_EQ(state.num_cliques(), 5u);
}

TEST(IncrCpm, FragmentWitnessedByACliqueBornEarlierInTheBatch) {
  // P = {0, 1, 2, 3, 4} and Q = {1, 2, 3, 5}. Removing (0, 4) first kills
  // P and gives {1, 2, 3, 4} and {0, 1, 2, 3}, both maximal. Removing
  // (1, 5) next, in the same batch, kills Q: its fragment {1, 2, 3} lies
  // in both newborns and is not kept, while {2, 3, 5} is.
  const Graph g = union_of_cliques(6, {{0, 1, 2, 3, 4}, {1, 2, 3, 5}});
  Mirror mirror(g);
  IncrementalCpm state(g);
  EdgeBatch batch;
  batch.remove = {{0, 4}, {1, 5}};
  apply_and_check(state, mirror, batch, {}, "newborn witness");
  EXPECT_EQ(state.num_cliques(), 3u);
  apply_and_check(state, mirror, batch.inverse(), {}, "newborn inverse");
  EXPECT_EQ(state.num_cliques(), 2u);
}

TEST(IncrCpm, ChurnInsideTheDenseCoreKeepsDigestIdentity) {
  // A 16-node core at p = 0.8 in a sparse periphery: removals there kill
  // many mutually overlapping cliques at once, and the adds rebuild them.
  Rng rng(31);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < 60; ++u) {
    for (NodeId v = u + 1; v < 60; ++v) {
      const double p = v < 16 ? 0.8 : (u < 16 ? 0.1 : 0.04);
      if (rng.next_bool(p)) edges.emplace_back(u, v);
    }
  }
  const Graph g = Graph::from_edges(60, edges);
  Mirror mirror(g);
  IncrementalCpm state(g);
  const auto in_core = [](const std::pair<NodeId, NodeId>& e) {
    return e.first < 16 && e.second < 16;
  };
  for (int b = 0; b < 12; ++b) {
    EdgeBatch batch;
    std::vector<std::pair<NodeId, NodeId>> core;
    std::copy_if(mirror.edges.begin(), mirror.edges.end(),
                 std::back_inserter(core), in_core);
    batch.remove = rng.sample_without_replacement(
        core, std::min<std::size_t>(3, core.size()));
    while (batch.add.size() < 2) {
      const auto u = static_cast<NodeId>(rng.next_below(16));
      const auto v = static_cast<NodeId>(rng.next_below(16));
      const std::pair<NodeId, NodeId> e{std::min(u, v), std::max(u, v)};
      if (u == v || state.graph().has_edge(u, v) ||
          std::find(batch.add.begin(), batch.add.end(), e) !=
              batch.add.end() ||
          std::find(batch.remove.begin(), batch.remove.end(), e) !=
              batch.remove.end()) {
        continue;
      }
      batch.add.push_back(e);
    }
    apply_and_check(state, mirror, batch, {},
                    "core batch " + std::to_string(b));
  }
}

TEST(IncrCpm, EmptyBatchIsANoOp) {
  const Graph g = testing::random_graph(15, 0.3, 2);
  IncrementalCpm state(g);
  const std::string before = digest(state);
  state.apply(EdgeBatch{});
  EXPECT_EQ(digest(state), before);
  EXPECT_EQ(state.num_edges(), g.num_edges());
}

TEST(IncrCpm, RejectsInvalidBatchesAndLeavesStateUntouched) {
  const Graph g = testing::complete_graph(4);  // edges 0-1, 0-2, ... 2-3
  IncrementalCpm state(g);
  const std::string before = digest(state);

  const auto expect_rejected = [&](const EdgeBatch& batch,
                                   const std::string& label) {
    EXPECT_THROW(state.apply(batch), Error) << label;
    EXPECT_EQ(digest(state), before) << label << ": state mutated";
  };

  EdgeBatch add_present;
  add_present.add.emplace_back(0, 1);
  expect_rejected(add_present, "adding a present edge");

  EdgeBatch remove_absent;
  remove_absent.remove.emplace_back(0, 5);
  expect_rejected(remove_absent, "removing an absent edge");

  EdgeBatch self_loop;
  self_loop.add.emplace_back(7, 7);
  expect_rejected(self_loop, "self-loop add");

  EdgeBatch dup_side;
  dup_side.add.emplace_back(0, 4);
  dup_side.add.emplace_back(4, 0);  // same pair, other orientation
  expect_rejected(dup_side, "pair listed twice on one side");

  EdgeBatch both_sides;
  both_sides.remove.emplace_back(0, 1);
  both_sides.add.emplace_back(1, 0);
  expect_rejected(both_sides, "same pair on both sides");
}

TEST(IncrCpm, RejectionMessagesNameTheEdge) {
  IncrementalCpm state(testing::complete_graph(4));
  const auto error_of = [&](const EdgeBatch& batch) -> std::string {
    try {
      state.apply(batch);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EdgeBatch remove_absent;
  remove_absent.remove.emplace_back(5, 0);
  EXPECT_EQ(error_of(remove_absent),
            "IncrementalCpm::apply: remove of absent edge (0, 5)");
  EdgeBatch add_present;
  add_present.add.emplace_back(3, 2);
  EXPECT_EQ(error_of(add_present),
            "IncrementalCpm::apply: add of already-present edge (2, 3)");
  EdgeBatch self_loop;
  self_loop.remove.emplace_back(7, 7);
  EXPECT_EQ(error_of(self_loop),
            "IncrementalCpm::apply: self-loop in remove (7, 7)");
  EdgeBatch twice;
  twice.add.emplace_back(0, 4);
  twice.add.emplace_back(4, 0);
  EXPECT_EQ(error_of(twice),
            "IncrementalCpm::apply: edge (0, 4) listed twice in add");
}

TEST(IncrCpm, RestrictedKRangeMatchesSweepUnderChurn) {
  cpm::Options options;
  options.min_k = 3;
  options.max_k = 5;
  const Graph g = testing::random_graph(22, 0.35, 13);
  Mirror mirror(g);
  IncrementalCpm state(g, options);
  ASSERT_EQ(digest(state), sweep_digest(g, options));
  Rng rng(41);
  for (int b = 0; b < 4; ++b) {
    EdgeBatch batch = add_batch(mirror, 2, rng);
    EdgeBatch removes = remove_batch(mirror, 2, rng);
    batch.remove = std::move(removes.remove);
    apply_and_check(state, mirror, batch, options,
                    "restricted batch " + std::to_string(b));
  }
}

TEST(IncrCpm, CliqueBackendsAgreeUnderChurn) {
  const Graph g = testing::preferential_attachment_graph(36, 4, 29);
  cpm::Options sparse, bitset;
  sparse.clique_backend = clique::Backend::kSparse;
  bitset.clique_backend = clique::Backend::kBitset;
  Mirror mirror(g);
  IncrementalCpm a(g, sparse), b(g, bitset);
  Rng rng(53);
  for (int i = 0; i < 4; ++i) {
    EdgeBatch batch = add_batch(mirror, 3, rng);
    EdgeBatch removes = remove_batch(mirror, 3, rng);
    batch.remove = std::move(removes.remove);
    mirror.apply(batch);
    a.apply(batch);
    b.apply(batch);
    ASSERT_EQ(digest(a), digest(b)) << "backend divergence at batch " << i;
    ASSERT_EQ(digest(a), sweep_digest(mirror.build()))
        << "both backends diverged at batch " << i;
  }
}

// A churn run's report names each stage once, in order: the bootstrap's
// enumeration, node index and order (`cliques`), one `apply` per batch, the
// table copy of result() (`materialize`), then the sweep's own `percolate`
// and `tree`. The stages do not nest, so their walls fit inside the run.
TEST(IncrCpm, RunReportNamesEachChurnStage) {
  const Graph g = testing::preferential_attachment_graph(45, 3, 37);
  Mirror mirror(g);
  Rng rng(41);
  const EdgeBatch adds = add_batch(mirror, 4, rng);
  mirror.apply(adds);
  const EdgeBatch removes = remove_batch(mirror, 4, rng);

  obs::RunRecorder& recorder = obs::RunRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  const Timer timer;
  IncrementalCpm state(g);
  state.apply(adds);
  state.apply(removes);
  const cpm::Result result = state.result();
  const double run_seconds = timer.seconds();
  recorder.set_enabled(false);

  std::vector<std::string> names;
  double stage_seconds = 0.0;
  for (const obs::StageSample& stage : recorder.stages()) {
    names.push_back(stage.name);
    stage_seconds += stage.wall_seconds;
  }
  recorder.clear();
  EXPECT_EQ(names, (std::vector<std::string>{"cliques", "apply", "apply",
                                             "materialize", "percolate",
                                             "tree"}));
  EXPECT_LE(stage_seconds, run_seconds + 1e-9);
  EXPECT_TRUE(result.has_tree);
}

TEST(IncrCpm, RejectsTheLargestNodeIdInsteadOfWrapping) {
  // Growing the per-node arrays to id + 1 wraps to 0 for the largest
  // NodeId; the batch must be rejected before anything is touched.
  IncrementalCpm state(testing::complete_graph(4));
  const std::string before = digest(state);
  EdgeBatch batch;
  batch.add.emplace_back(0xFFFFFFFFu, 2);
  try {
    state.apply(batch);
    FAIL() << "expected kcc::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "IncrementalCpm::apply: node id out of range in add (2, "
              "4294967295); ids must be below 4294967295");
  }
  EXPECT_EQ(state.num_nodes(), 4u);
  EXPECT_EQ(state.num_edges(), 6u);
  EXPECT_EQ(digest(state), before);
}

TEST(IncrCpm, NodeUniverseGrowsWithAddedEdges) {
  IncrementalCpm state(Graph::from_edges(0, {}));
  EdgeBatch batch;
  batch.add.emplace_back(2, 5);
  state.apply(batch);
  EXPECT_EQ(state.num_nodes(), 6u);
  EXPECT_EQ(state.num_edges(), 1u);
  EXPECT_EQ(digest(state), sweep_digest(Graph::from_edges(6, {{2, 5}})));
}

}  // namespace
}  // namespace kcc
