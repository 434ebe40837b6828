// Clique overlap index: the pairwise |A ∩ B| relation over a clique table.
//
// The Lightweight Parallel CPM observation (Gregori et al. 2011, [11]) is
// that percolation at every k reads the *same* overlap relation with a
// different threshold: cliques A, B (|A|,|B| >= k) belong to one k-clique
// community chain when |A ∩ B| >= k-1. We therefore compute each
// overlapping pair once — one clique at a time, with an inverted
// node→clique index restricting candidates to cliques that share a node —
// and every percolation reads that one pair sequence. This join is the
// only one in the library: the sweep (and through it the incremental
// engine's materialize), per_k and weighted CPM all run it.
//
// The join is hub-sliced. In the AS graph a few dense-core nodes sit in
// most large cliques (at paper scale 64 nodes carry 97.5% of the posting
// increments), so the nodes with the longest postings become hubs: each
// indexed clique carries a 64-bit mask of its hubs, the postings hold
// non-hub nodes only, and |A ∩ B| = non-hub hits + |mask_A & mask_B|. A
// pair sharing no non-hub can only join two "rich" cliques, each holding
// >= min_overlap hubs; one bitset row per hub over the rich cliques and a
// bit-sliced counter over a clique's hub rows find those pairs 64 at a
// time. Either way the pair set is exactly the plain join's.
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

/// Precondition of the join: no clique of the table contains another (as
/// for distinct maximal cliques, or distinct k-cliques of one size). A
/// clique of size s then shares at most s - 1 nodes with any other, and the
/// join leaves every clique of size <= min_overlap out of the index and
/// the probe loop without changing the pair set. (Single-edge cliques, 65%
/// of the paper-scale table, never enter a join at min_overlap >= 2.)

/// Inverted index: for each node, the ids of the cliques of size
/// >= min_size containing it, ascending.
std::vector<std::vector<CliqueId>> build_node_clique_index(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_size = 0);

/// Most hubs a join uses: one bit each in a clique's 64-bit mask.
inline constexpr std::size_t kMaxHubs = 64;
/// choose_hubs' mark for a node that is not a hub.
inline constexpr std::uint8_t kNoHub = 0xFF;

/// The join's hub rule over per-node posting lengths: the nodes whose
/// length is >= 2 and strictly above the 65th longest, so at most
/// kMaxHubs and never part of a tie at the bar (a table without skew has
/// no hubs). Returns each node's mask bit, numbered in node order, or
/// kNoHub.
std::vector<std::uint8_t> choose_hubs(
    std::span<const std::uint32_t> posting_lengths);

/// The join, one clique at a time in id order: after clique b is counted
/// against every earlier clique, `sink` receives b's pairs (a < b,
/// overlap >= min_overlap >= 1; the span is only valid during the call):
/// first those sharing a non-hub node, in the order b's postings first
/// reached each a, then those sharing hubs only, a ascending. The pair
/// sequence is deterministic and independent of any thread count.
void for_each_clique_overlaps(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap,
    const std::function<void(std::span<const CliqueOverlap>)>& sink);

/// Deprecated: every pair of for_each_clique_overlaps collected in the
/// order the sink sees them; `pool` is unused. Kept only because
/// kccbench/workloads.cpp calls this 4-argument form; it goes when kccbench
/// next changes.
std::vector<CliqueOverlap> compute_clique_overlaps_unsorted(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& pool);

}  // namespace kcc
