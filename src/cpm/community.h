// Community data model for the Clique Percolation Method.
//
// A k-clique community (Palla et al. 2005, paper Sec. 3) is the union of all
// k-cliques reachable from one another through adjacent k-cliques (sharing
// k-1 nodes). We represent a community by (a) its member node set and (b)
// the ids of the maximal cliques whose k-cliques compose it; the clique ids
// are what lets the community tree resolve nesting parents exactly. No
// level stores the inverse (clique -> community): it would cost one entry
// per clique per level, and its readers derive it from the clique ids with
// clique_community_map() when they need it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace kcc {

struct Community {
  std::size_t k = 0;        // order of the community
  CommunityId id = 0;       // dense id within its CommunitySet
  NodeSet nodes;            // sorted member nodes
  std::vector<CliqueId> clique_ids;  // maximal cliques composing it (sorted)

  std::size_t size() const { return nodes.size(); }
};

/// All k-clique communities for a single k, ordered by descending size with
/// ties broken by smallest member node (so id 0 is the largest community).
struct CommunitySet {
  std::size_t k = 0;
  std::vector<Community> communities;

  std::size_t count() const { return communities.size(); }

  static constexpr CommunityId kNoCommunity = static_cast<CommunityId>(-1);
};

/// Full CPM output: communities for every k in [min_k, max_k], plus the
/// shared maximal-clique table they are defined over.
struct CpmResult {
  std::vector<NodeSet> cliques;     // maximal cliques of size >= 2
  std::size_t min_k = 0;
  std::size_t max_k = 0;            // inclusive; max_k < min_k means "none"
  std::vector<CommunitySet> by_k;   // by_k[i] holds k = min_k + i

  bool has_k(std::size_t k) const { return k >= min_k && k <= max_k; }

  const CommunitySet& at(std::size_t k) const;
  CommunitySet& at(std::size_t k);

  /// Total number of communities over all k (the paper reports 627).
  std::size_t total_communities() const;

  /// k values that have exactly one community (paper: 2, 21, 22, 25, 36).
  std::vector<std::size_t> unique_community_ks() const;
};

/// The inverse of one level's clique ids over a table of `num_cliques`
/// cliques: the id of the community listing each clique, kNoCommunity for
/// cliques the level lists in no community (those of size < k). Clique ids
/// at or past `num_cliques` are skipped.
std::vector<CommunityId> clique_community_map(const CommunitySet& set,
                                              std::size_t num_cliques);

}  // namespace kcc
