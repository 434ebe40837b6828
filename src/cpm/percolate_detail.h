// Internals shared by the CPM engines (per-k percolation in cpm.cpp, the
// single-sweep engine in sweep_cpm.cpp and the almost-exact engine in
// almost_cpm.cpp): canonical community ordering, the k = 2 level,
// input validation, the common metrics hooks, and the one descending-k
// level loop the sweep-style engines plug their joins into. All of them
// read only the clique table and a node count, never a graph. Not part of
// the public API — include cpm/cpm.h or cpm/engine.h instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "cpm/community.h"
#include "cpm/community_tree.h"
#include "cpm/cpm.h"

namespace kcc {
class UnionFind;
}

namespace kcc::cpm_detail {

/// Orders communities by descending size, ties by smallest member node, and
/// reassigns dense ids. The order is independent of union-find internals and
/// thread scheduling, so CPM output is bit-stable across thread counts and
/// across engines.
void canonicalise(CommunitySet& set);

/// k = 2 from the clique table alone: the nodes of each clique are united,
/// so a community is one component of the clique-node relation, its nodes
/// ascending and its clique ids ascending. Every edge lies in some maximal
/// clique, so over a full maximal-clique table of a graph with `num_nodes`
/// nodes these are exactly its connected components with >= 2 nodes.
CommunitySet percolate_k2(std::size_t num_nodes,
                          const std::vector<NodeSet>& cliques);

/// Flushes the per-k community count/size instruments for one finished set.
void note_community_set(const CommunitySet& set);

/// Counts one batch of union-find join operations.
void note_join_ops(std::uint64_t join_ops);

/// Shared entry validation: min_k >= 2 and every clique sorted, of size
/// >= 2 and inside the graph (every node < num_nodes).
void validate_cpm_input(std::size_t num_nodes, std::size_t min_k,
                        const std::vector<NodeSet>& cliques,
                        const char* where);

/// Resolves the effective max_k: 0 means "largest clique size"; larger
/// requests are clamped. Returns min_k - 1 (empty range) when no clique
/// reaches min_k.
std::size_t resolve_max_k(std::size_t min_k, std::size_t max_k,
                          const std::vector<NodeSet>& cliques);

/// How one sweep-style engine finds the merges of a level.
struct LevelJoin {
  /// Runs once before the first level, over the validated clique table.
  /// `lowest` = max(3, min_k) is the last level the loop unites.
  std::function<void(const std::vector<NodeSet>& cliques, std::size_t lowest)>
      prepare;

  /// Unites every pair of live cliques that level `k` makes adjacent.
  /// `live` holds the cliques of size >= k in ascending id order; the
  /// merges of every higher level are already in `uf`.
  std::function<void(std::size_t k, UnionFind& uf,
                     const std::vector<CliqueId>& live)>
      unite_level;
};

/// The community levels and tree of one descending-k run.
struct LevelSweep {
  CpmResult cpm;
  CommunityTree tree;  ///< empty unless the tree step ran
};

/// The descending-k loop of the sweep-style engines (paper Sec. 3.1: each
/// level coarsens the one above). Validates `cliques` against a graph of
/// `num_nodes` nodes and resolves the k range from `options`; when the
/// range reaches k >= 3, calls `join.prepare` once and sweeps ONE
/// union-find from the largest clique size down to max(3, min_k): activate
/// the cliques of size k, `join.unite_level(k, ...)`, and snapshot the
/// components over the live cliques as level k when k is requested. Then
/// the k = 2 level (percolate_k2) when min_k == 2, and — when `build_tree`
/// is set and the range is not empty — the nesting tree, built from the
/// finished levels by CommunityTree::build.
/// Every level is canonicalised, so engines that unite the same pairs emit
/// byte-identical output. `where` names the caller in error messages; span
/// names are `<spans>/sweep`, `<spans>/emit_k=<k>`, `<spans>/percolate_k2`
/// and `<spans>/tree`. The levels run under the `percolate` run-report
/// stage and the tree step under the `tree` stage (obs::StageScope).
LevelSweep descend_levels(std::size_t num_nodes, std::vector<NodeSet> cliques,
                          const CpmOptions& options, const char* where,
                          const char* spans, const LevelJoin& join,
                          bool build_tree);

}  // namespace kcc::cpm_detail
