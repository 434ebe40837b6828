#include "cpm/clique_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clique/bron_kerbosch.h"
#include "common/rng.h"
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

// ------------------------------------------------------ hub-sliced join
//
// The join splits |A ∩ B| into non-hub hits and shared hub bits, and finds
// pairs that share hubs only through the rich cliques' bitset rows. These
// tables are built to put pairs on each side of those splits; every one is
// held to the all-pairs join at min_overlap 1..6.

// Node numbering of the generated tables: hubs first, then `spread`
// non-hubs that several cliques may share, then one private node per
// clique slot, which appears in no other clique.
struct TableShape {
  std::size_t num_cliques = 300;
  std::size_t hubs = 24;           // core nodes, in most cliques
  std::size_t hubs_min = 3;        // core nodes per clique
  std::size_t hubs_max = 10;
  std::size_t spread = 400;        // shared non-hubs, each in few cliques
  std::size_t spread_max = 2;      // shared non-hubs per clique
  std::size_t privates = 1;        // private nodes per clique
};

std::vector<NodeSet> skewed_table(const TableShape& shape, std::uint64_t seed,
                                  std::size_t& num_nodes) {
  Rng rng(seed);
  std::vector<NodeSet> cliques;
  NodeId next_private = static_cast<NodeId>(shape.hubs + shape.spread);
  for (std::size_t c = 0; c < shape.num_cliques; ++c) {
    NodeSet q;
    const auto core = static_cast<std::size_t>(
        rng.next_int(static_cast<std::int64_t>(shape.hubs_min),
                     static_cast<std::int64_t>(shape.hubs_max)));
    while (q.size() < core) {
      q.push_back(static_cast<NodeId>(rng.next_below(shape.hubs)));
      sort_unique(q);
    }
    const auto shared = static_cast<std::size_t>(
        rng.next_below(shape.spread_max + 1));
    for (std::size_t i = 0; i < shared && shape.spread > 0; ++i) {
      q.push_back(
          static_cast<NodeId>(shape.hubs + rng.next_below(shape.spread)));
    }
    for (std::size_t i = 0; i < shape.privates; ++i) {
      q.push_back(next_private++);
    }
    sort_unique(q);
    cliques.push_back(std::move(q));
  }
  num_nodes = next_private;
  return cliques;
}

// Posting lengths of the cliques of size > min_overlap, as the join counts.
std::vector<std::uint32_t> posting_lengths(const std::vector<NodeSet>& cliques,
                                           std::size_t num_nodes,
                                           std::size_t min_overlap) {
  std::vector<std::uint32_t> lengths(num_nodes, 0);
  for (const NodeSet& q : cliques) {
    if (q.size() <= min_overlap) continue;
    for (NodeId v : q) ++lengths[v];
  }
  return lengths;
}

std::size_t hub_count(const std::vector<std::uint8_t>& hub_bit) {
  return static_cast<std::size_t>(
      std::count_if(hub_bit.begin(), hub_bit.end(),
                    [](std::uint8_t b) { return b != kNoHub; }));
}

void expect_exact(const std::vector<NodeSet>& cliques, std::size_t num_nodes,
                  std::size_t min_overlap, const std::string& label) {
  EXPECT_TRUE(
      same_overlaps(sequential_overlaps(cliques, num_nodes, min_overlap),
                    naive_overlaps(cliques, min_overlap)))
      << label << " min_overlap " << min_overlap;
}

TEST(CliqueIndex, HubRuleTakesTheLongestPostingsAboveA65thPlaceTie) {
  // 10 long postings above 100 tied at 5: the tie at the bar is left out
  // whole, so exactly the 10 become hubs, numbered in node order.
  std::vector<std::uint32_t> lengths(200, 1);
  for (std::size_t v = 0; v < 100; ++v) lengths[50 + v] = 5;
  for (std::size_t v = 0; v < 10; ++v) lengths[v * 7] = 40 + v;
  const auto hub_bit = choose_hubs(lengths);
  EXPECT_EQ(hub_count(hub_bit), 10u);
  for (std::size_t v = 0; v < 10; ++v) EXPECT_EQ(hub_bit[v * 7], v);

  // No skew: every length tied, more than 64 candidates, no hubs.
  EXPECT_EQ(hub_count(choose_hubs(std::vector<std::uint32_t>(500, 3))), 0u);
  // 64 or fewer candidates: every node in two or more postings is a hub.
  std::vector<std::uint32_t> small(64, 2);
  small.push_back(1);
  EXPECT_EQ(hub_count(choose_hubs(small)), 64u);
  EXPECT_EQ(choose_hubs(small)[64], kNoHub);
  // 65 distinct lengths: the shortest sets the bar, 64 clear it.
  std::vector<std::uint32_t> ranked;
  for (std::uint32_t len = 2; len < 67; ++len) ranked.push_back(len);
  EXPECT_EQ(hub_count(choose_hubs(ranked)), 64u);
}

TEST(CliqueIndex, HubOnlyPairsMatchNaive) {
  // Every non-hub is private, so all pairs share hubs only: the bitset
  // rows find every one of them (>= 3 shared hubs for min_overlap 3).
  TableShape shape;
  shape.spread = 0;
  shape.privates = 2;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    std::size_t n = 0;
    const auto cliques = skewed_table(shape, seed, n);
    ASSERT_EQ(hub_count(choose_hubs(posting_lengths(cliques, n, 3))),
              shape.hubs);
    for (std::size_t m = 1; m <= 6; ++m) {
      expect_exact(cliques, n, m, "hub-only seed " + std::to_string(seed));
    }
  }
}

TEST(CliqueIndex, HubsPlusSharedNonHubsMatchNaive) {
  // A narrow non-hub pool: pairs share hubs plus one or two non-hubs, and
  // the hub set sits above a crowd of non-hub postings.
  TableShape shape;
  shape.spread = 120;
  shape.spread_max = 3;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    std::size_t n = 0;
    const auto cliques = skewed_table(shape, seed + 10, n);
    const auto hubs = hub_count(choose_hubs(posting_lengths(cliques, n, 2)));
    EXPECT_GT(hubs, 0u);
    EXPECT_LE(hubs, kMaxHubs);
    std::size_t with_non_hub = 0;
    for (std::size_t m = 1; m <= 6; ++m) {
      expect_exact(cliques, n, m, "mixed seed " + std::to_string(seed));
    }
    for (const CliqueOverlap& p : naive_overlaps(cliques, 3)) {
      for (NodeId v : cliques[p.a]) {
        if (v >= shape.hubs && contains(cliques[p.b], v)) {
          ++with_non_hub;
          break;
        }
      }
    }
    EXPECT_GT(with_non_hub, 0u) << "seed " << seed;
  }
}

TEST(CliqueIndex, NoSkewMeansNoHubsAndStaysExact) {
  // A ring of 200 cliques of 6: node i sits in exactly 6 cliques, every
  // posting tied, so the join runs on plain postings alone.
  std::vector<NodeSet> cliques;
  constexpr std::size_t kRing = 200;
  for (std::size_t c = 0; c < kRing; ++c) {
    NodeSet q;
    for (std::size_t i = 0; i < 6; ++i) {
      q.push_back(static_cast<NodeId>((c + i) % kRing));
    }
    std::sort(q.begin(), q.end());
    cliques.push_back(std::move(q));
  }
  EXPECT_EQ(hub_count(choose_hubs(posting_lengths(cliques, kRing, 1))), 0u);
  for (std::size_t m = 1; m <= 6; ++m) expect_exact(cliques, kRing, m, "ring");
}

TEST(CliqueIndex, EveryNodeAHubMatchesNaive) {
  // 40 nodes: every node with two or more postings is a hub, so there are
  // no non-hub postings at all.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(40, 0.45, seed + 100);
    const auto cliques = maximal_cliques(g, 2);
    const auto lengths = posting_lengths(cliques, g.num_nodes(), 1);
    const auto hub_bit = choose_hubs(lengths);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(hub_bit[v] != kNoHub, lengths[v] >= 2) << "node " << v;
    }
    for (std::size_t m = 1; m <= 6; ++m) {
      expect_exact(cliques, g.num_nodes(), m, "all hubs");
    }
  }
}

TEST(CliqueIndex, ManyTiedHubCandidatesMatchNaive) {
  // 12 core nodes in every clique, and 150 other nodes each in exactly 3:
  // more than 64 candidates tie below the core, and none of them is a hub.
  std::vector<NodeSet> cliques;
  constexpr std::size_t kCore = 12, kTied = 150;
  for (std::size_t c = 0; c < kTied; ++c) {
    NodeSet q;
    for (std::size_t h = 0; h < kCore; ++h) {
      if ((c + h) % 3 != 0) q.push_back(static_cast<NodeId>(h));
    }
    for (std::size_t i = 0; i < 3; ++i) {
      q.push_back(static_cast<NodeId>(kCore + (c + i * 7) % kTied));
    }
    sort_unique(q);
    cliques.push_back(std::move(q));
  }
  const std::size_t n = kCore + kTied;
  EXPECT_EQ(hub_count(choose_hubs(posting_lengths(cliques, n, 3))), kCore);
  for (std::size_t m = 1; m <= 6; ++m) expect_exact(cliques, n, m, "tied");
}

TEST(CliqueIndex, RichRanksAroundWordBoundariesMatchNaive) {
  // R rich cliques that pairwise share the same 3 hubs and nothing else:
  // each one's hub rows end inside, at, or just past a 64-bit word.
  for (std::size_t rich : {63u, 64u, 65u, 129u}) {
    std::vector<NodeSet> cliques;
    NodeId next = 3;
    for (std::size_t c = 0; c < rich; ++c) {
      cliques.push_back({0, 1, 2, next, static_cast<NodeId>(next + 1)});
      next += 2;
      if (c % 5 == 0) {
        // An unrich clique in between shifts the ranks off the ids.
        cliques.push_back({0, next, static_cast<NodeId>(next + 1),
                           static_cast<NodeId>(next + 2)});
        next += 3;
      }
    }
    for (std::size_t m = 1; m <= 6; ++m) {
      expect_exact(cliques, next, m, "rich " + std::to_string(rich));
    }
    EXPECT_EQ(sequential_overlaps(cliques, next, 3).size(),
              rich * (rich - 1) / 2);
  }
}

TEST(CliqueIndex, WeightedCpmKCliqueJoinMatchesNaive) {
  // Weighted CPM joins the distinct k-cliques of one size at k - 1. A
  // dense core of 18 nodes in a sparse graph of 120 gives skewed postings.
  Rng rng(5);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < 120; ++u) {
    for (NodeId v = u + 1; v < 120; ++v) {
      const double p = (u < 18 && v < 18) ? 0.85 : (u < 18 ? 0.08 : 0.02);
      if (rng.next_bool(p)) edges.emplace_back(u, v);
    }
  }
  const Graph g = Graph::from_edges(120, edges);
  for (std::size_t k : {3u, 4u, 5u}) {
    std::vector<NodeSet> k_cliques;
    for (const NodeSet& q : maximal_cliques(g, k)) {
      // Every k-subset of a maximal clique, by index masks.
      std::vector<std::size_t> pick(k);
      for (std::size_t i = 0; i < k; ++i) pick[i] = i;
      while (true) {
        NodeSet sub;
        for (std::size_t i : pick) sub.push_back(q[i]);
        k_cliques.push_back(std::move(sub));
        std::size_t i = k;
        while (i > 0 && pick[i - 1] == q.size() - k + i - 1) --i;
        if (i == 0) break;
        ++pick[i - 1];
        for (std::size_t j = i; j < k; ++j) pick[j] = pick[j - 1] + 1;
      }
    }
    sort_unique(k_cliques);
    ASSERT_GT(k_cliques.size(), 100u);
    expect_exact(k_cliques, g.num_nodes(), k - 1,
                 "k-cliques k=" + std::to_string(k));
  }
}

TEST(CliqueIndex, DisjointCliquesNoPairs) {
  const std::vector<NodeSet> cliques{{0, 1, 2}, {3, 4, 5}};
  EXPECT_TRUE(sequential_overlaps(cliques, 6, 1).empty());
}

}  // namespace
}  // namespace kcc
