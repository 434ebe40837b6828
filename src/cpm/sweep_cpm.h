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
#include <vector>

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
/// clique sorted, size >= 2, nodes < `num_nodes`). Options are shared with
/// the per-k engine. Every level, k = 2 included, comes from the clique
/// table, so the node count is all the sweep needs of the graph: the
/// incremental engine materializes through this form over its kept table,
/// building no Graph. `build_tree` = false skips the tree step.
SweepCpmResult run_sweep_cpm_on_cliques(std::size_t num_nodes,
                                        std::vector<NodeSet> cliques,
                                        const CpmOptions& options = {},
                                        bool build_tree = true);

/// Same, reading only `g.num_nodes()`.
SweepCpmResult run_sweep_cpm_on_cliques(const Graph& g,
                                        std::vector<NodeSet> cliques,
                                        const CpmOptions& options = {},
                                        bool build_tree = true);

/// run_sweep_cpm_on_cliques over a clique set whose overlap pairs are
/// already known: skips the overlap join and files the given pairs (every
/// unordered clique pair sharing >= 3 nodes, any order, clique ids
/// indexing `cliques`; pairs sharing fewer are accepted and dropped)
/// straight into the sweep's buckets, then runs the same loop, level 3
/// included. The pairs are filed only when the effective k range reaches
/// 3, and used only when it reaches 4.
SweepCpmResult run_sweep_cpm_prejoined(const Graph& g,
                                       std::vector<NodeSet> cliques,
                                       std::vector<CliqueOverlap> overlaps,
                                       const CpmOptions& options = {},
                                       bool build_tree = true);

}  // namespace kcc
