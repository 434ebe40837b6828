// Single-sweep community-tree engine.
//
// The per-k engine (cpm.h) re-scans the whole clique-overlap pair list once
// per k — O(k_max * |overlaps|) work over identical data. The nesting
// theorem (paper Sec. 3.1) says the communities at k are coarsened, not
// recomputed, as k decreases: lowering the threshold only merges components.
// This engine exploits that directly, Kruskal-style:
//
//  1. join the collected clique table clique by clique: each clique is
//     counted against the node -> clique index of the cliques before it
//     (clique_index.h), and every overlap pair is born as a packed 8-byte
//     {a, b} record in the bucket of its overlap value. The buckets ARE the
//     descending counting sort, so there is no sort pass and no second copy
//     of the pairs. Only pairs sharing >= max(3, min_k - 1) nodes are
//     stored: level 3 needs none (step 2), and no other level consumes a
//     smaller overlap;
//  2. run ONE union-find sweep from k = k_max down to 3: at level k,
//     activate the cliques of size k and drain the bucket of overlap k-1
//     (pairs with larger overlap were united at higher k). Level 3 reads
//     no bucket: two distinct maximal cliques share >= 2 nodes exactly when
//     they share an edge, so it chains the live cliques through their
//     shared edges instead (Palla et al.'s nesting puts these unions on top
//     of level 4's forest). After a level's unions the union-find
//     components over the live cliques ARE the k-clique communities at k —
//     a per-k snapshot of a single evolving structure rather than an
//     independent percolation;
//  3. materialize each requested level from that snapshot, each
//     community's nodes as the distinct nodes of its cliques; then build the
//     community tree (Fig. 4.2) from the finished levels with
//     CommunityTree::build, which resolves each k-community's nesting
//     parent through one member clique's community at level k-1.
//
// Steps 2 and 3 are the descending-k level loop shared with the
// almost-exact engine (cpm_detail::descend_levels); this engine supplies
// the bucket fill, the per-level drain and the level-3 edge chain.
//
// The pair store stays in RAM: 8 bytes per pair, each bucket freed once its
// level drains it. A bounded-memory run is the almost-exact engine's job
// (almost_cpm.h), which stores no pairs at all.
//
// Every stored pair is united exactly once across all k, and the output
// (community node sets, ids, clique maps, tree) is byte-identical to the
// per-k engine's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.h"
#include "cpm/clique_index.h"
#include "cpm/community_tree.h"
#include "cpm/cpm.h"
#include "graph/graph.h"

namespace kcc {

/// What one sweep stored and united. Every field but `buckets` is also
/// published as a cpm_sweep_* metric (docs/OBSERVABILITY.md).
struct SweepCpmStats {
  std::uint64_t pairs = 0;    ///< overlap pairs stored in the buckets
  std::uint64_t buckets = 0;  ///< overlap values holding >= 1 pair
  std::uint64_t resident_pair_bytes_peak = 0;  ///< peak resident pair bytes
  /// Level-3 unite calls through shared edges: one per clique that holds an
  /// edge an earlier clique of its group already claimed. Never stored.
  std::uint64_t edge_links = 0;
  /// Unite calls, from the buckets or the edge chain, that joined two
  /// components; every other stored pair or edge link changed nothing.
  std::uint64_t merges = 0;
};

/// Output of the single-sweep engine: the standard CPM result plus the
/// nesting tree, built right after the levels. When the k range is empty
/// or the tree was not asked for, the tree is default-constructed (no
/// nodes).
struct SweepCpmResult {
  CpmResult cpm;
  CommunityTree tree;
  SweepCpmStats stats;
};

/// Extracts all k-clique communities and the community tree in one
/// descending-k sweep over a pre-enumerated maximal-clique set (each
/// clique sorted, size >= 2, nodes < g.num_nodes()). Options are shared
/// with the per-k engine. Only `g.num_nodes()` is read: every level, k = 2
/// included, comes from the clique table. `build_tree` = false skips the
/// tree step.
SweepCpmResult run_sweep_cpm_on_cliques(const Graph& g,
                                        std::vector<NodeSet> cliques,
                                        const CpmOptions& options = {},
                                        bool build_tree = true);

/// The sweep's pair store as a pair source sees it: one bucket per overlap
/// value, so filing a pair is its place in the descending counting sort
/// (step 1). The sweep owns the buckets; a source only adds to them.
class OverlapSink {
 public:
  /// Files the pair of cliques `a`, `b` (ids into the sweep's table) that
  /// share `overlap` nodes. Throws kcc::Error when `overlap` is more than
  /// two of the table's cliques can share.
  void add(CliqueId a, CliqueId b, std::size_t overlap) {
    // Two distinct maximal cliques share at most min(|A|, |B|) - 1 nodes.
    require(overlap < buckets_.size(), caller_, ": overlap ", overlap,
            " exceeds the clique-size bound");
    buckets_[overlap].push_back(PackedPair{a, b});
  }

 protected:
  // 8 bytes per pair, vs 12 in CliqueOverlap: the overlap is encoded by
  // which bucket the pair lives in.
  struct PackedPair {
    CliqueId a = 0;
    CliqueId b = 0;
  };

  OverlapSink(std::size_t num_buckets, const char* caller)
      : buckets_(num_buckets), caller_(caller) {}

  std::vector<std::vector<PackedPair>> buckets_;  // [o] = pairs of overlap o

 private:
  const char* caller_;
};

/// A pair source: called once, before the first level, with the smallest
/// overlap the sweep stores; it adds every unordered clique pair sharing at
/// least that many nodes to the sink, each pair once, in any order.
using OverlapSource =
    std::function<void(std::size_t min_overlap, OverlapSink& sink)>;

/// run_sweep_cpm_on_cliques over a clique set (nodes < `num_nodes`) whose
/// overlap pairs are already known: skips the overlap join, lets `source`
/// add the pairs straight into the sweep's buckets, then runs the same
/// loop, level 3 included. The incremental engine maintains the pairs
/// across edge batches and re-enters the sweep here, walking its live
/// overlap lists into the sink with no flat copy and building no Graph, so
/// its output is the sweep engine's output by construction. The source is called only when the effective k
/// range reaches 3, and its pairs are used only when it reaches 4.
SweepCpmResult run_sweep_cpm_prejoined(std::size_t num_nodes,
                                       std::vector<NodeSet> cliques,
                                       const OverlapSource& source,
                                       const CpmOptions& options = {},
                                       bool build_tree = true);

/// Same, over a flat overlap pair multiset (every unordered clique pair
/// sharing >= 3 nodes, any order, clique ids indexing `cliques`; pairs
/// sharing fewer are accepted and dropped): a source that adds the vector.
SweepCpmResult run_sweep_cpm_prejoined(const Graph& g,
                                       std::vector<NodeSet> cliques,
                                       std::vector<CliqueOverlap> overlaps,
                                       const CpmOptions& options = {},
                                       bool build_tree = true);

}  // namespace kcc
