#include "cpm/cpm.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cpm/reference_cpm.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::make_graph;
using testing::overlapping_cliques;
using testing::random_graph;

std::vector<NodeSet> community_node_sets(const CommunitySet& set) {
  std::vector<NodeSet> out;
  for (const auto& c : set.communities) out.push_back(c.nodes);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Cpm, CompleteGraphOneCommunityPerK) {
  const CpmResult r = run_cpm(complete_graph(6));
  EXPECT_EQ(r.min_k, 2u);
  EXPECT_EQ(r.max_k, 6u);
  for (std::size_t k = 2; k <= 6; ++k) {
    ASSERT_EQ(r.at(k).count(), 1u) << "k " << k;
    EXPECT_EQ(r.at(k).communities[0].nodes, (NodeSet{0, 1, 2, 3, 4, 5}));
  }
}

TEST(Cpm, PallaExampleTwoFiveCliquesSharingThree) {
  // Two 5-cliques sharing 3 nodes: one community at k <= 4, two at k = 5.
  const Graph g = overlapping_cliques(5, 5, 3);
  const CpmResult r = run_cpm(g);
  EXPECT_EQ(r.max_k, 5u);
  EXPECT_EQ(r.at(4).count(), 1u);
  EXPECT_EQ(r.at(4).communities[0].size(), 7u);
  ASSERT_EQ(r.at(5).count(), 2u);
  EXPECT_EQ(r.at(5).communities[0].size(), 5u);
  EXPECT_EQ(r.at(5).communities[1].size(), 5u);
}

TEST(Cpm, SharingKMinusOneMergesAtK) {
  // Two 4-cliques sharing 3 nodes merge at k = 4.
  const Graph g = overlapping_cliques(4, 4, 3);
  const CpmResult r = run_cpm(g);
  EXPECT_EQ(r.at(4).count(), 1u);
  EXPECT_EQ(r.at(4).communities[0].size(), 5u);
}

TEST(Cpm, TriangleChain) {
  // Triangles sharing single nodes stay separate at k = 3.
  // {0,1,2} - node 2 - {2,3,4}: share 1 node < k-1 = 2.
  const Graph g = make_graph(5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}});
  const CpmResult r = run_cpm(g);
  EXPECT_EQ(r.at(3).count(), 2u);
  EXPECT_EQ(r.at(2).count(), 1u);  // all one component
}

TEST(Cpm, IsolatedCliqueIsItsOwnCommunity) {
  GraphBuilder b;
  // K4 on {0..3} and a disjoint edge {4,5}.
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) b.add_edge(i, j);
  }
  b.add_edge(4, 5);
  const CpmResult r = run_cpm(b.build());
  EXPECT_EQ(r.at(2).count(), 2u);
  EXPECT_EQ(r.at(3).count(), 1u);
  EXPECT_EQ(r.at(4).count(), 1u);
  EXPECT_EQ(r.at(4).communities[0].nodes, (NodeSet{0, 1, 2, 3}));
}

TEST(Cpm, EmptyAndEdgelessGraphs) {
  const CpmResult r = run_cpm(Graph{});
  EXPECT_LT(r.max_k, r.min_k);
  EXPECT_EQ(r.total_communities(), 0u);

  GraphBuilder b;
  b.ensure_nodes(5);
  const CpmResult r2 = run_cpm(b.build());
  EXPECT_EQ(r2.total_communities(), 0u);
}

TEST(Cpm, MinKBelowTwoThrows) {
  CpmOptions options;
  options.min_k = 1;
  EXPECT_THROW(run_cpm(complete_graph(3), options), Error);
}

TEST(Cpm, MaxKClamped) {
  CpmOptions options;
  options.max_k = 100;
  const CpmResult r = run_cpm(complete_graph(4), options);
  EXPECT_EQ(r.max_k, 4u);

  options.max_k = 3;
  const CpmResult r2 = run_cpm(complete_graph(4), options);
  EXPECT_EQ(r2.max_k, 3u);
  EXPECT_TRUE(r2.has_k(3));
  EXPECT_FALSE(r2.has_k(4));
}

TEST(Cpm, MinKRestrictsRange) {
  CpmOptions options;
  options.min_k = 4;
  const CpmResult r = run_cpm(complete_graph(6), options);
  EXPECT_FALSE(r.has_k(3));
  EXPECT_TRUE(r.has_k(4));
  EXPECT_EQ(r.at(4).count(), 1u);
}

TEST(Cpm, CommunityOrderingCanonical) {
  // Larger communities get smaller ids.
  const Graph g = overlapping_cliques(6, 3, 0);
  const CpmResult r = run_cpm(g);
  const auto& threes = r.at(3).communities;
  ASSERT_EQ(threes.size(), 2u);
  EXPECT_GT(threes[0].size(), threes[1].size());
  EXPECT_EQ(threes[0].id, 0u);
  EXPECT_EQ(threes[1].id, 1u);
}

TEST(Cpm, CommunityOfCliqueMapping) {
  const Graph g = overlapping_cliques(5, 5, 3);
  const CpmResult r = run_cpm(g);
  for (std::size_t k = r.min_k; k <= r.max_k; ++k) {
    const CommunitySet& set = r.at(k);
    const std::vector<CommunityId> map =
        clique_community_map(set, r.cliques.size());
    for (CliqueId c = 0; c < r.cliques.size(); ++c) {
      const CommunityId id = map[c];
      if (r.cliques[c].size() >= k) {
        ASSERT_NE(id, CommunitySet::kNoCommunity);
        // The clique's nodes must be inside its community.
        const auto& nodes = set.communities[id].nodes;
        EXPECT_TRUE(std::includes(nodes.begin(), nodes.end(),
                                  r.cliques[c].begin(), r.cliques[c].end()));
      } else {
        EXPECT_EQ(id, CommunitySet::kNoCommunity);
      }
    }
  }
}

TEST(Cpm, MatchesReferenceOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Graph g = random_graph(16, 0.35, seed);
    const CpmResult r = run_cpm(g);
    for (std::size_t k = 3; k <= std::max<std::size_t>(r.max_k, 3); ++k) {
      const auto expected = reference_k_clique_communities(g, k);
      std::vector<NodeSet> actual;
      if (r.has_k(k)) actual = community_node_sets(r.at(k));
      EXPECT_EQ(actual, expected) << "seed " << seed << " k " << k;
    }
  }
}

TEST(Cpm, ReferenceMatchesAtK2Too) {
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    const Graph g = random_graph(14, 0.2, seed);
    const CpmResult r = run_cpm(g);
    if (!r.has_k(2)) continue;
    EXPECT_EQ(community_node_sets(r.at(2)),
              reference_k_clique_communities(g, 2));
  }
}

TEST(Cpm, RunOnPreEnumeratedCliques) {
  const Graph g = overlapping_cliques(5, 5, 3);
  auto cliques = testing::clique_table(g);
  const CpmResult direct = run_cpm(g);
  const CpmResult via_cliques = run_cpm_on_cliques(g, std::move(cliques));
  ASSERT_EQ(direct.max_k, via_cliques.max_k);
  for (std::size_t k = direct.min_k; k <= direct.max_k; ++k) {
    EXPECT_EQ(community_node_sets(direct.at(k)),
              community_node_sets(via_cliques.at(k)));
  }
}

TEST(Cpm, RejectsMalformedCliques) {
  const Graph g = complete_graph(3);
  EXPECT_THROW(run_cpm_on_cliques(g, {{2, 1}}), Error);   // unsorted
  EXPECT_THROW(run_cpm_on_cliques(g, {{1}}), Error);      // too small
}

TEST(Cpm, UniqueCommunityKs) {
  const Graph g = overlapping_cliques(5, 5, 3);
  const CpmResult r = run_cpm(g);
  const auto unique = r.unique_community_ks();
  // k = 2, 3, 4 have one community; k = 5 has two.
  EXPECT_EQ(unique, (std::vector<std::size_t>{2, 3, 4}));
}

}  // namespace
}  // namespace kcc
