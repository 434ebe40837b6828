#include "cpm/weighted_cpm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cpm/cpm.h"
#include "common/set_ops.h"
#include "cpm/reference_cpm.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;
using testing::overlapping_cliques;
using testing::random_graph;

TEST(EdgeWeights, UniformAndLookup) {
  const Graph g = complete_graph(4);
  const EdgeWeights w = EdgeWeights::uniform(g);
  EXPECT_EQ(w.edge_count(), 6u);
  EXPECT_DOUBLE_EQ(w.weight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(w.weight(3, 2), 1.0);  // orientation-insensitive
  EXPECT_DOUBLE_EQ(w.min_weight(), 1.0);
  EXPECT_DOUBLE_EQ(w.max_weight(), 1.0);
  EXPECT_THROW(w.weight(0, 0), Error);
}

TEST(EdgeWeights, RejectsBadInput) {
  const Graph g = complete_graph(3);
  EXPECT_THROW(EdgeWeights(g, {1.0}), Error);             // wrong count
  EXPECT_THROW(EdgeWeights(g, {1.0, 0.0, 1.0}), Error);   // non-positive
}

TEST(EdgeWeights, FromIxps) {
  const Graph g = complete_graph(4);
  std::vector<Ixp> ixps;
  ixps.push_back({"A", "DE", {0, 1, 2}});
  ixps.push_back({"B", "DE", {0, 1}});
  const IxpDataset dataset(std::move(ixps));
  const EdgeWeights w = weights_from_ixps(g, dataset);
  EXPECT_DOUBLE_EQ(w.weight(0, 1), 3.0);  // shares A and B
  EXPECT_DOUBLE_EQ(w.weight(0, 2), 2.0);  // shares A
  EXPECT_DOUBLE_EQ(w.weight(0, 3), 1.0);  // no shared IXP
}

TEST(CliqueIntensity, GeometricMean) {
  const Graph g = complete_graph(3);
  const EdgeWeights w(g, {1.0, 4.0, 2.0});  // edges (0,1), (0,2), (1,2)
  EXPECT_NEAR(clique_intensity(g, w, {0, 1, 2}), std::cbrt(8.0), 1e-12);
  EXPECT_DOUBLE_EQ(clique_intensity(g, w, {0, 2}), 4.0);
}

TEST(CliqueIntensity, NonCliqueThrows) {
  const Graph g = testing::make_graph(3, {{0, 1}, {1, 2}});
  const EdgeWeights w = EdgeWeights::uniform(g);
  EXPECT_THROW(clique_intensity(g, w, {0, 1, 2}), Error);
  EXPECT_THROW(clique_intensity(g, w, {0}), Error);
}

TEST(WeightedCpm, ZeroThresholdMatchesUnweighted) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = random_graph(18, 0.4, seed);
    const EdgeWeights w = EdgeWeights::uniform(g);
    for (std::size_t k : {3u, 4u}) {
      WeightedCpmOptions options;
      options.k = k;
      options.intensity_threshold = 0.0;
      EXPECT_EQ(weighted_k_clique_communities(g, w, options),
                reference_k_clique_communities(g, k))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(WeightedCpm, ThresholdSplitsWeakSeam) {
  // Two triangles joined by a shared edge of low weight.
  // Nodes: {0,1,2} strong, {1,2,3} with weak links to 3.
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  const Graph g = b.build();
  // Edge order: (0,1), (0,2), (1,2), (1,3), (2,3).
  const EdgeWeights w(g, {8.0, 8.0, 8.0, 1.0, 1.0});

  WeightedCpmOptions options;
  options.k = 3;
  options.intensity_threshold = 0.0;
  EXPECT_EQ(weighted_k_clique_communities(g, w, options).size(), 1u);

  // Triangle {1,2,3} intensity = (8*1*1)^(1/3) = 2; {0,1,2} = 8.
  options.intensity_threshold = 4.0;
  const auto strong = weighted_k_clique_communities(g, w, options);
  ASSERT_EQ(strong.size(), 1u);
  EXPECT_EQ(strong[0], (NodeSet{0, 1, 2}));
}

TEST(WeightedCpm, HighThresholdRemovesEverything) {
  const Graph g = complete_graph(5);
  const EdgeWeights w = EdgeWeights::uniform(g);
  WeightedCpmOptions options;
  options.k = 3;
  options.intensity_threshold = 2.0;
  EXPECT_TRUE(weighted_k_clique_communities(g, w, options).empty());
}

TEST(WeightedCpm, CliqueBudgetEnforced) {
  const Graph g = complete_graph(16);
  const EdgeWeights w = EdgeWeights::uniform(g);
  WeightedCpmOptions options;
  options.k = 8;
  options.max_cliques = 100;  // C(16,8) = 12870 >> 100
  EXPECT_THROW(weighted_k_clique_communities(g, w, options), Error);
}

// Property: raising the intensity threshold only removes cliques, so every
// community at a higher threshold is contained in some community at a lower
// threshold (threshold nesting — the weighted analogue of Theorem 1).
TEST(WeightedCpm, ThresholdNestingProperty) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(20, 0.4, seed);
    // Pseudo-random positive weights derived from the seed.
    Rng rng(seed + 55);
    std::vector<double> raw;
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      raw.push_back(0.5 + rng.next_double() * 4.0);
    }
    const EdgeWeights w(g, std::move(raw));
    WeightedCpmOptions low, high;
    low.k = 3;
    high.k = 3;
    low.intensity_threshold = 1.0;
    high.intensity_threshold = 2.0;
    const auto coarse = weighted_k_clique_communities(g, w, low);
    const auto fine = weighted_k_clique_communities(g, w, high);
    for (const NodeSet& community : fine) {
      std::size_t containing = 0;
      for (const NodeSet& parent : coarse) {
        if (is_subset(community, parent)) ++containing;
      }
      EXPECT_GE(containing, 1u) << "seed " << seed;
    }
  }
}

TEST(WeightedCpm, IntensitySweepMonotone) {
  const Graph g = overlapping_cliques(5, 5, 3);
  // Give the first clique's edges weight 4, the rest weight 1.
  auto edges = g.edges();
  std::vector<double> weights;
  for (const auto& [u, v] : edges) {
    weights.push_back(u < 5 && v < 5 ? 4.0 : 1.0);
  }
  const EdgeWeights w(g, std::move(weights));
  const auto sweep = intensity_sweep(g, w, 4, {0.0, 1.5, 10.0});
  ASSERT_EQ(sweep.size(), 3u);
  // Clique count shrinks as the threshold rises.
  EXPECT_GE(sweep[0].surviving_cliques, sweep[1].surviving_cliques);
  EXPECT_GE(sweep[1].surviving_cliques, sweep[2].surviving_cliques);
  EXPECT_EQ(sweep[2].community_count, 0u);
  EXPECT_GT(sweep[0].community_count, 0u);
}

// Compares every point of one intensity_sweep call with
// weighted_k_clique_communities at the same threshold: surviving cliques,
// community count and largest community.
void expect_sweep_matches_weighted(const Graph& g, const EdgeWeights& w,
                                   std::size_t k,
                                   const std::vector<double>& thresholds) {
  const auto points = intensity_sweep(g, w, k, thresholds);
  ASSERT_EQ(points.size(), thresholds.size());
  for (const IntensitySweepPoint& point : points) {
    SCOPED_TRACE(::testing::Message()
                 << "k " << k << " threshold " << point.threshold);
    WeightedCpmOptions options;
    options.k = k;
    options.intensity_threshold = point.threshold;
    const auto communities = weighted_k_clique_communities(g, w, options);
    EXPECT_EQ(point.community_count, communities.size());
    std::size_t largest = 0;
    for (const NodeSet& c : communities) largest = std::max(largest, c.size());
    EXPECT_EQ(point.largest_community, largest);
    // The clique budget throws once more than max_cliques k-cliques
    // survive (0 disables it), so a budget of exactly surviving_cliques
    // must pass and one less must throw.
    const std::size_t surviving = point.surviving_cliques;
    if (surviving == 0) {
      EXPECT_TRUE(communities.empty());
    }
    if (surviving >= 1) {
      options.max_cliques = surviving;
      EXPECT_NO_THROW(weighted_k_clique_communities(g, w, options));
    }
    if (surviving >= 2) {
      options.max_cliques = surviving - 1;
      EXPECT_THROW(weighted_k_clique_communities(g, w, options), Error);
    }
  }
}

TEST(WeightedCpm, IntensitySweepMatchesWeightedAtEveryThreshold) {
  // Uniform weight w with threshold I = w puts every k-clique exactly on
  // the boundary, where a predicate evaluated another way (exp of the mean
  // log against I) rounds differently. K4 at k = 4 and w = 1.602 is one
  // such case.
  for (std::size_t n = 4; n <= 7; ++n) {
    const Graph g = complete_graph(n);
    for (int step = 0; step <= 800; ++step) {
      const double weight = step == 800 ? 1.602 : 1.01 + 0.01 * step;
      const EdgeWeights w(g, std::vector<double>(g.num_edges(), weight));
      for (std::size_t k = 2; k <= n; ++k) {
        SCOPED_TRACE(::testing::Message() << "K" << n << " w " << weight);
        expect_sweep_matches_weighted(g, w, k, {weight});
        if (HasFailure()) return;  // one boundary case says enough
      }
    }
  }
  // Random weights, several thresholds per sweep (one enumeration at the
  // lowest, filtered per point).
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(18, 0.5, seed);
    Rng rng(seed + 91);
    std::vector<double> raw;
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      raw.push_back(0.5 + rng.next_double() * 4.0);
    }
    const EdgeWeights w(g, std::move(raw));
    for (std::size_t k : {2u, 3u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "random seed " << seed);
      expect_sweep_matches_weighted(g, w, k, {2.5, 0.0, 1.2, 1.6, 2.0});
    }
  }
}

TEST(WeightedCpm, IntensitySweepRejectsKBelowTwo) {
  const Graph g = complete_graph(4);
  const EdgeWeights w = EdgeWeights::uniform(g);
  for (std::size_t k : {0u, 1u}) {
    try {
      intensity_sweep(g, w, k, {0.0});
      ADD_FAILURE() << "k " << k << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("intensity_sweep: k must be >= 2"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace kcc
