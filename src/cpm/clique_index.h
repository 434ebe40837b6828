// Clique overlap index: the pairwise |A ∩ B| relation over maximal cliques.
//
// The Lightweight Parallel CPM observation (Gregori et al. 2011, [11]) is
// that percolation at every k reads the *same* overlap relation with a
// different threshold: cliques A, B (|A|,|B| >= k) belong to one k-clique
// community chain when |A ∩ B| >= k-1. We therefore compute each
// overlapping pair once — in parallel over cliques, with an inverted
// node→clique index restricting candidates to cliques that share a node —
// and every per-k percolation becomes a linear scan of the pair list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"

namespace kcc {

struct CliqueOverlap {
  CliqueId a = 0;             // a < b
  CliqueId b = 0;
  std::uint32_t overlap = 0;  // |A ∩ B| >= min_overlap
};

/// Inverted index: for each node, the ids of cliques containing it.
std::vector<std::vector<CliqueId>> build_node_clique_index(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes);

/// Computes all clique pairs with |A ∩ B| >= min_overlap, in parallel over
/// `pool`. Pairs are returned sorted by (a, b); the result is deterministic.
std::vector<CliqueOverlap> compute_clique_overlaps(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& pool);

/// Same pair set without the final (a, b) sort — the pair ORDER depends on
/// the shard count (i.e. on `pool.thread_count()`), only the set is
/// deterministic. For consumers that impose their own order anyway (the
/// incremental engine's overlap lists) this skips the dominant
/// O(P log P) step of the join.
std::vector<CliqueOverlap> compute_clique_overlaps_unsorted(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& pool);

/// The sequential join, one clique at a time in id order: after clique b is
/// counted against the index of every earlier clique, `sink` receives b's
/// pairs (a < b, overlap >= min_overlap; the span is only valid during the
/// call). The sweep engine buckets pairs as they arrive instead of holding
/// a flat pair list.
void for_each_clique_overlaps(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap,
    const std::function<void(std::span<const CliqueOverlap>)>& sink);

/// Sequential variant (used by tests and the single-thread ablation bench).
std::vector<CliqueOverlap> compute_clique_overlaps_sequential(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap);

}  // namespace kcc
