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
//     of the pairs. Pairs below max(3, min_k) - 1, which no level consumes,
//     are never stored;
//  2. run ONE union-find sweep from k = k_max down to 3: at level k,
//     activate the cliques of size k and drain the bucket of overlap k-1
//     (pairs with larger overlap were united at higher k); after those
//     unions the union-find components over the live cliques ARE the
//     k-clique communities at k — a per-k snapshot of a single evolving
//     structure rather than an independent percolation;
//  3. materialize each requested level from that snapshot, and resolve each
//     (k+1)-community's nesting parent against the freshly emitted level —
//     so the full community tree (Fig. 4.2) falls out of the same pass
//     instead of being reconstructed post-hoc.
//
// With CpmOptions::memory_budget set, whole buckets spill to temp files
// whenever the resident pairs exceed the budget, and each level streams
// its spilled prefix back one fixed-size chunk at a time. The budget caps
// the pair store — the dominant transient — not the clique table or the
// communities, which are the result.
//
// Every pair is united exactly once across all k, and the output
// (community node sets, ids, clique maps, tree) is byte-identical to the
// per-k engine's, with or without a budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpm/clique_index.h"
#include "cpm/community_tree.h"
#include "cpm/cpm.h"
#include "graph/graph.h"

namespace kcc {

/// What one sweep stored and spilled. Pairs, spills and the resident peak
/// are also published as cpm_sweep_* metrics (docs/OBSERVABILITY.md).
struct SweepCpmStats {
  std::uint64_t pairs = 0;          ///< overlap pairs bucketed
  std::uint64_t buckets = 0;        ///< overlap values holding >= 1 pair
  std::uint64_t spilled_pairs = 0;  ///< pairs written to spill files
  std::uint64_t spilled_buckets = 0;  ///< buckets with a spill file
  std::uint64_t spill_bytes = 0;    ///< bytes written to spill files
  std::uint64_t resident_pair_bytes_peak = 0;  ///< peak resident pair bytes
};

/// Output of the single-sweep engine: the standard CPM result plus the
/// nesting tree, built during the sweep itself. When the k range is empty
/// the tree is default-constructed (no nodes).
struct SweepCpmResult {
  CpmResult cpm;
  CommunityTree tree;
  SweepCpmStats stats;
};

/// Smallest accepted non-zero memory budget: the spill read-back chunk
/// size. A budget below one chunk could not even stage a reload, so the
/// sweep rejects it with kcc::Error instead of thrashing.
std::uint64_t sweep_min_memory_budget();

/// Parses a byte count with an optional K/M/G (KiB/MiB/GiB) suffix:
/// "65536", "64K", "200M", "1G". Case-insensitive. Throws kcc::Error on
/// anything else. "0" means unlimited.
std::uint64_t parse_memory_budget(const std::string& text);

/// Extracts all k-clique communities and the community tree of `g` in one
/// descending-k sweep. Options are shared with the per-k engine.
SweepCpmResult run_sweep_cpm(const Graph& g, const CpmOptions& options = {});

/// Same, over a pre-enumerated maximal-clique set (each clique sorted, size
/// >= 2). `g` is still needed for the k = 2 special case.
SweepCpmResult run_sweep_cpm_on_cliques(const Graph& g,
                                        std::vector<NodeSet> cliques,
                                        const CpmOptions& options = {});

/// Same, over a pre-enumerated clique set AND a pre-computed overlap pair
/// multiset (every unordered clique pair sharing >= 2 nodes, any order,
/// clique ids indexing `cliques`). Skips the overlap join: the flat pairs
/// are dropped into the same buckets and run through the same loop. The
/// incremental engine maintains the pairs across edge batches and re-enters
/// the sweep here, so its output is the sweep engine's output by
/// construction. When the effective k range stays below 3 the pairs are
/// unused.
SweepCpmResult run_sweep_cpm_prejoined(const Graph& g,
                                       std::vector<NodeSet> cliques,
                                       std::vector<CliqueOverlap> overlaps,
                                       const CpmOptions& options = {});

}  // namespace kcc
