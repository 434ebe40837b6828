// Unit tests for the incremental CPM engine: digest identity with a
// from-scratch sweep after add-only / remove-only / mixed batches, batch
// inversion, strict batch validation, restricted k ranges and both clique
// backends. The randomized cross-family coverage lives in the
// check::churn_differential harness (kcc_fuzz --schedules); these are the
// deterministic corner cases.

#include "cpm/incr_cpm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/rng.h"
#include "cpm/engine.h"
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

TEST(IncrCpm, RegistryEngineIsExactAndCoversThePatchPath) {
  // The registry full-run hook holds back a suffix of edges and apply()s
  // them, so running it at all exercises churn; its digest must match the
  // canonicalised sweep.
  const Graph g = testing::preferential_attachment_graph(45, 3, 37);
  cpm::Options options;
  options.engine = "incremental";
  const cpm::Result run = cpm::Engine(options).run(g);
  EXPECT_EQ(run.engine_name, "incremental");
  EXPECT_EQ(run.exactness, cpm::Exactness::kExact);
  EXPECT_TRUE(cpm::engine_info("incremental").caps.canonical_clique_order);
  EXPECT_EQ(cpm::canonical_text(run), sweep_digest(g));
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
