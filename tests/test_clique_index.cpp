#include "cpm/clique_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "clique/bron_kerbosch.h"
#include "common/set_ops.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::random_graph;

// Oracle: all-pairs overlap computation.
std::vector<CliqueOverlap> naive_overlaps(const std::vector<NodeSet>& cliques,
                                          std::size_t min_overlap) {
  std::vector<CliqueOverlap> out;
  for (CliqueId a = 0; a < cliques.size(); ++a) {
    for (CliqueId b = a + 1; b < cliques.size(); ++b) {
      const auto o = intersection_size(cliques[a], cliques[b]);
      if (o >= min_overlap) {
        out.push_back({a, b, static_cast<std::uint32_t>(o)});
      }
    }
  }
  return out;
}

// (a, b) order, so joins that emit pairs in different orders compare.
std::vector<CliqueOverlap> sorted(std::vector<CliqueOverlap> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const CliqueOverlap& x, const CliqueOverlap& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  return pairs;
}

// Every pair the per-clique join hands its sink, in the order it does.
std::vector<CliqueOverlap> sink_overlaps(const std::vector<NodeSet>& cliques,
                                         std::size_t num_nodes,
                                         std::size_t min_overlap) {
  std::vector<CliqueOverlap> out;
  for_each_clique_overlaps(cliques, num_nodes, min_overlap,
                           [&](std::span<const CliqueOverlap> pairs) {
                             out.insert(out.end(), pairs.begin(), pairs.end());
                           });
  return out;
}

std::vector<CliqueOverlap> sequential_overlaps(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap) {
  return sorted(sink_overlaps(cliques, num_nodes, min_overlap));
}

bool same_overlaps(const std::vector<CliqueOverlap>& x,
                   const std::vector<CliqueOverlap>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b || x[i].overlap != y[i].overlap) {
      return false;
    }
  }
  return true;
}

TEST(CliqueIndex, NodeCliqueIndexComplete) {
  const std::vector<NodeSet> cliques{{0, 1, 2}, {1, 2, 3}, {4}};
  const auto index = build_node_clique_index(cliques, 5);
  EXPECT_EQ(index[0], (std::vector<CliqueId>{0}));
  EXPECT_EQ(index[1], (std::vector<CliqueId>{0, 1}));
  EXPECT_EQ(index[2], (std::vector<CliqueId>{0, 1}));
  EXPECT_EQ(index[3], (std::vector<CliqueId>{1}));
  EXPECT_EQ(index[4], (std::vector<CliqueId>{2}));

  // The joins index only the cliques that can reach their min_overlap.
  const auto large = build_node_clique_index(cliques, 5, 3);
  EXPECT_EQ(large[1], (std::vector<CliqueId>{0, 1}));
  EXPECT_TRUE(large[4].empty());
}

TEST(CliqueIndex, SequentialMatchesNaive) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = random_graph(25, 0.35, seed);
    const auto cliques = maximal_cliques(g, 2);
    for (std::size_t min_overlap : {1u, 2u, 3u}) {
      const auto fast =
          sequential_overlaps(cliques, g.num_nodes(), min_overlap);
      const auto naive = naive_overlaps(cliques, min_overlap);
      EXPECT_TRUE(same_overlaps(fast, naive))
          << "seed " << seed << " min_overlap " << min_overlap;
    }
  }
}

TEST(CliqueIndex, CollectReturnsTheSinkSequence) {
  // The collecting form (kccbench's) returns the join's pair sequence
  // itself, order included, not only the same pair set.
  ThreadPool pool(2);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(40, 0.3, seed + 7);
    const auto cliques = maximal_cliques(g, 2);
    for (std::size_t min_overlap : {1u, 2u, 3u}) {
      const auto sink = sink_overlaps(cliques, g.num_nodes(), min_overlap);
      ASSERT_FALSE(sink.empty()) << "seed " << seed;
      EXPECT_TRUE(same_overlaps(
          sink, compute_clique_overlaps_unsorted(cliques, g.num_nodes(),
                                                 min_overlap, pool)))
          << "seed " << seed << " min_overlap " << min_overlap;
    }
  }
}

TEST(CliqueIndex, EmptyCliqueSet) {
  ThreadPool pool(2);
  EXPECT_TRUE(compute_clique_overlaps_unsorted({}, 10, 1, pool).empty());
  EXPECT_TRUE(sequential_overlaps({}, 10, 1).empty());
}

TEST(CliqueIndex, MinOverlapZeroThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(compute_clique_overlaps_unsorted({{0, 1}}, 2, 0, pool), Error);
  EXPECT_THROW(for_each_clique_overlaps({{0, 1}}, 2, 0,
                                        [](std::span<const CliqueOverlap>) {}),
               Error);
}

TEST(CliqueIndex, DisjointCliquesNoPairs) {
  const std::vector<NodeSet> cliques{{0, 1, 2}, {3, 4, 5}};
  EXPECT_TRUE(sequential_overlaps(cliques, 6, 1).empty());
}

}  // namespace
}  // namespace kcc
