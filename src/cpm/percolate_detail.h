// Internals shared by the CPM engines (per-k percolation in cpm.cpp, the
// single-sweep engine in sweep_cpm.cpp and the almost-exact engine in
// almost_cpm.cpp): canonical community ordering, the k = 2
// connected-components special case, option validation, the descending-k
// level emitter / snapshotter shared by the sweep-style engines, and the
// common metrics hooks. Not part of the public API — include cpm/cpm.h or
// cpm/engine.h instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpm/community.h"
#include "cpm/community_tree.h"
#include "graph/graph.h"

namespace kcc {
class UnionFind;
}

namespace kcc::cpm_detail {

/// Orders communities by descending size, ties by smallest member node, and
/// reassigns dense ids + the clique -> community map. The order is
/// independent of union-find internals and thread scheduling, so CPM output
/// is bit-stable across thread counts and across engines.
void canonicalise(CommunitySet& set, std::size_t num_cliques);

/// k = 2: communities are connected components with at least one edge.
CommunitySet percolate_k2(const Graph& g, const std::vector<NodeSet>& cliques);

/// Flushes the per-k community count/size instruments for one finished set.
void note_community_set(const CommunitySet& set);

/// Counts one batch of union-find join operations.
void note_join_ops(std::uint64_t join_ops);

/// Shared entry validation: min_k >= 2 and every clique sorted, size >= 2.
void validate_cpm_input(std::size_t min_k, const std::vector<NodeSet>& cliques,
                        const char* where);

/// Resolves the effective max_k: 0 means "largest clique size"; larger
/// requests are clamped. Returns min_k - 1 (empty range) when no clique
/// reaches min_k.
std::size_t resolve_max_k(std::size_t min_k, std::size_t max_k,
                          const std::vector<NodeSet>& cliques);

/// Groups live cliques by union-find root into one level-k CommunitySet.
/// The root → community-slot scratch map is epoch-stamped, so each snapshot
/// is O(|live|) with no per-level clearing; the union-find itself is never
/// copied or rolled back. Shared by the sweep-style engines.
class SweepSnapshotter {
 public:
  explicit SweepSnapshotter(std::size_t num_cliques);

  /// Components over `live` at level `k`, with node sets materialized from
  /// `cliques` and clique ids sorted (NOT yet canonicalised — pass the
  /// result to DescendingLevelEmitter::emit).
  CommunitySet snapshot(std::size_t k, UnionFind& uf,
                        const std::vector<CliqueId>& live,
                        const std::vector<NodeSet>& cliques);

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> slot_;
  std::uint32_t epoch_ = 0;
};

/// Receives the per-k community sets of a descending-k sweep — from
/// result.max_k down to max(3, result.min_k), then optionally the k = 2
/// level — canonicalises each, wires the nesting parents of the level
/// above through its representative cliques, and assembles the community
/// tree. The single-sweep engine (and through it the incremental engine)
/// and the almost-exact engine emit through this class, which is what
/// keeps the exact ones byte-identical to each other (and, by the
/// sweep-vs-oracle tests, to the per-k engine).
/// `result.min_k`, `result.max_k` and `result.by_k` must be sized before
/// construction; `result.cliques` must hold the full clique table.
class DescendingLevelEmitter {
 public:
  DescendingLevelEmitter(const Graph& g, CpmResult& result);

  /// Emits the level for `set.k`. Levels must arrive in strictly
  /// descending k order.
  void emit(CommunitySet set);

  /// Emits the k = 2 level (connected components) and resolves the k = 3
  /// parents. Call after every k >= 3 level, only when result.min_k == 2.
  void emit_k2();

  /// Assembles the tree from the emitted levels.
  CommunityTree finish() const;

 private:
  const Graph& g_;
  CpmResult& result_;
  std::vector<std::vector<TreeParentLink>> tree_levels_;
  // Representative clique of each community at the previously emitted
  // (next-higher) level, in canonical id order; resolving it against the
  // current level's clique -> community map yields the nesting parent.
  std::vector<CliqueId> reps_above_;
};

}  // namespace kcc::cpm_detail
