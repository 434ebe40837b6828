// The k-clique community tree (paper Sec. 4, Fig. 4.2).
//
// By the nesting theorem (Sec. 3.1; verified as a library property test),
// every community of order k is contained in exactly one community of order
// k-1. Drawing an edge from each community to that unique parent yields a
// tree whose levels are the k values. The paper classifies:
//  * main communities — the maximum-k community ("apex") and all of its
//    ancestors (the filled nodes in Fig. 4.2);
//  * parallel communities — everything else (branches of the tree);
// and, using IXP data, splits the levels into root / trunk / crown bands.
#pragma once

#include <cstddef>
#include <vector>

#include "cpm/community.h"

namespace kcc {

/// Vertical band of the tree (paper Sec. 4.1-4.3).
enum class Band { kRoot, kTrunk, kCrown };

/// Band boundaries: k <= root_max_k is root, k <= trunk_max_k is trunk,
/// larger k is crown. Defaults are the paper's observed bands.
struct BandThresholds {
  std::size_t root_max_k = 14;
  std::size_t trunk_max_k = 28;

  Band band_of(std::size_t k) const {
    if (k <= root_max_k) return Band::kRoot;
    if (k <= trunk_max_k) return Band::kTrunk;
    return Band::kCrown;
  }
};

const char* band_name(Band band);

struct TreeNode {
  std::size_t k = 0;
  CommunityId community_id = 0;  // id within the CommunitySet at level k
  std::size_t size = 0;          // community node count
  int parent = -1;               // index into CommunityTree::nodes(); -1 at min_k
  std::vector<int> children;     // indices into CommunityTree::nodes()
  bool is_main = false;
};

/// One community's tree entry as resolved by an engine: its node count and
/// the community id of its parent at the level below (kNoCommunity at the
/// bottom level). Levels are vectors of these in canonical community-id
/// order; see CommunityTree::from_levels.
struct TreeParentLink {
  std::size_t size = 0;
  CommunityId parent_id = CommunitySet::kNoCommunity;
};

class CommunityTree {
 public:
  /// Builds the tree from a CPM result. When several communities exist at
  /// the maximum k, the apex is the canonical first one (largest size).
  /// Requires cpm to cover a non-empty contiguous k range. A community's
  /// parent is the community that lists its first clique at the level below,
  /// read from one clique -> community map rebuilt level by level;
  /// communities that carry no clique ids (reference-oracle results) fall
  /// back to node-containment search.
  static CommunityTree build(const CpmResult& cpm);

  /// Assembles the tree from per-level parent links already resolved —
  /// by build(), or read back from a snapshot, which stores the links and
  /// no clique ids. levels[i] describes the communities at k = min_k + i
  /// in canonical id order; parent ids refer to the level below.
  static CommunityTree from_levels(
      std::size_t min_k, const std::vector<std::vector<TreeParentLink>>& levels);

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::size_t min_k() const { return min_k_; }
  std::size_t max_k() const { return max_k_; }

  /// Node indices at level k, in community-id order.
  const std::vector<int>& level(std::size_t k) const;

  /// Index of the node for community (k, id); -1 when absent.
  int index_of(std::size_t k, CommunityId id) const;

  /// The apex (maximum-k main community) node index.
  int apex() const { return apex_; }

  /// Main-community node indices from min_k up to max_k.
  std::vector<int> main_chain() const;

  std::size_t main_count() const;
  std::size_t parallel_count() const;

  /// Longest chain of parallel communities ending at `node` going upward
  /// (towards larger k). A "branch" in the paper's sense.
  std::size_t branch_length_above(int node) const;

 private:
  std::vector<TreeNode> nodes_;
  std::vector<std::vector<int>> levels_;  // levels_[k - min_k]
  std::size_t min_k_ = 0;
  std::size_t max_k_ = 0;
  int apex_ = -1;
};

/// Per-level tree statistics used by the Fig. 4.2 harness.
struct TreeLevelStats {
  std::size_t k = 0;
  std::size_t community_count = 0;   // Fig. 4.1 series
  std::size_t parallel_count = 0;
  std::size_t main_size = 0;         // size of the main community at k
  std::size_t largest_parallel_size = 0;
};

std::vector<TreeLevelStats> tree_level_stats(const CommunityTree& tree);

}  // namespace kcc
