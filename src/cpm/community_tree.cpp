#include "cpm/community_tree.h"

#include <algorithm>

#include "common/error.h"
#include "common/set_ops.h"

namespace kcc {

const char* band_name(Band band) {
  switch (band) {
    case Band::kRoot:
      return "root";
    case Band::kTrunk:
      return "trunk";
    case Band::kCrown:
      return "crown";
  }
  return "?";
}

namespace {

// Parent of `child` when it carries no clique ids (reference-oracle
// results): the unique (k-1)-community whose node set contains it.
CommunityId parent_by_containment(const Community& child,
                                  const CommunitySet& below) {
  for (const Community& candidate : below.communities) {
    if (is_subset(child.nodes, candidate.nodes)) return candidate.id;
  }
  return CommunitySet::kNoCommunity;
}

}  // namespace

CommunityTree CommunityTree::build(const CpmResult& cpm) {
  require(cpm.max_k >= cpm.min_k && !cpm.by_k.empty(),
          "CommunityTree::build: CPM result covers no k");
  std::vector<std::vector<TreeParentLink>> levels(cpm.max_k - cpm.min_k + 1);
  // Community of each clique at the level below, written just before each
  // level reads it. No reset between levels: a level-k witness has size
  // >= k, so level k-1 lists it and overwrites its entry, and the total
  // work is the sum of the levels' clique ids.
  std::vector<CommunityId> below_of_clique(cpm.cliques.size(),
                                           CommunitySet::kNoCommunity);

  for (std::size_t k = cpm.min_k; k <= cpm.max_k; ++k) {
    const CommunitySet& set = cpm.at(k);
    auto& level = levels[k - cpm.min_k];
    level.reserve(set.count());
    if (k > cpm.min_k) {
      for (const Community& parent : cpm.at(k - 1).communities) {
        for (CliqueId c : parent.clique_ids) {
          require(c < below_of_clique.size(),
                  "CommunityTree::build: clique id outside the table");
          below_of_clique[c] = parent.id;
        }
      }
    }
    for (const Community& community : set.communities) {
      TreeParentLink link;
      link.size = community.size();
      if (k > cpm.min_k) {
        if (community.clique_ids.empty()) {
          link.parent_id = parent_by_containment(community, cpm.at(k - 1));
        } else {
          // Nesting theorem: all cliques of this community live in one
          // (k-1)-level component; any member clique resolves the parent.
          const CliqueId witness = community.clique_ids.front();
          require(witness < below_of_clique.size(),
                  "CommunityTree::build: clique id outside the table");
          link.parent_id = below_of_clique[witness];
        }
        require(link.parent_id != CommunitySet::kNoCommunity,
                "CommunityTree::build: nesting parent missing");
      }
      level.push_back(link);
    }
  }
  return from_levels(cpm.min_k, levels);
}

CommunityTree CommunityTree::from_levels(
    std::size_t min_k, const std::vector<std::vector<TreeParentLink>>& levels) {
  require(!levels.empty(), "CommunityTree::from_levels: no levels");
  CommunityTree tree;
  tree.min_k_ = min_k;
  tree.max_k_ = min_k + levels.size() - 1;
  tree.levels_.resize(levels.size());

  for (std::size_t i = 0; i < levels.size(); ++i) {
    const std::size_t k = min_k + i;
    auto& level = tree.levels_[i];
    level.reserve(levels[i].size());
    for (CommunityId id = 0; id < levels[i].size(); ++id) {
      const TreeParentLink& link = levels[i][id];
      TreeNode node;
      node.k = k;
      node.community_id = id;
      node.size = link.size;
      if (i > 0) {
        require(link.parent_id != CommunitySet::kNoCommunity,
                "CommunityTree::from_levels: parent missing above min_k");
        node.parent = tree.index_of(k - 1, link.parent_id);
        require(node.parent >= 0,
                "CommunityTree::from_levels: parent not indexed");
      }
      const int index = static_cast<int>(tree.nodes_.size());
      level.push_back(index);
      if (node.parent >= 0) tree.nodes_[node.parent].children.push_back(index);
      tree.nodes_.push_back(std::move(node));
    }
  }

  // Apex: canonical first community (largest) of the top level; main chain =
  // apex plus all ancestors.
  const auto& top = tree.levels_.back();
  if (!top.empty()) {
    tree.apex_ = top.front();
    for (int n = tree.apex_; n >= 0; n = tree.nodes_[n].parent) {
      tree.nodes_[n].is_main = true;
    }
  }
  return tree;
}

const std::vector<int>& CommunityTree::level(std::size_t k) const {
  require(k >= min_k_ && k <= max_k_, "CommunityTree::level: k out of range");
  return levels_[k - min_k_];
}

int CommunityTree::index_of(std::size_t k, CommunityId id) const {
  if (k < min_k_ || k > max_k_) return -1;
  const auto& level = levels_[k - min_k_];
  // Levels are pushed in community-id order, so the id indexes the level.
  if (id >= level.size()) return -1;
  return level[id];
}

std::vector<int> CommunityTree::main_chain() const {
  std::vector<int> chain;
  for (int n = apex_; n >= 0; n = nodes_[n].parent) chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::size_t CommunityTree::main_count() const {
  std::size_t count = 0;
  for (const auto& node : nodes_) count += node.is_main ? 1 : 0;
  return count;
}

std::size_t CommunityTree::parallel_count() const {
  return nodes_.size() - main_count();
}

std::size_t CommunityTree::branch_length_above(int node) const {
  require(node >= 0 && node < static_cast<int>(nodes_.size()),
          "CommunityTree::branch_length_above: bad node");
  if (nodes_[node].is_main) return 0;
  std::size_t length = 1;
  int current = node;
  // Follow the unique chain upward while it stays a single parallel child.
  while (nodes_[current].children.size() == 1 &&
         !nodes_[nodes_[current].children.front()].is_main) {
    current = nodes_[current].children.front();
    ++length;
  }
  return length;
}

std::vector<TreeLevelStats> tree_level_stats(const CommunityTree& tree) {
  std::vector<TreeLevelStats> out;
  for (std::size_t k = tree.min_k(); k <= tree.max_k(); ++k) {
    TreeLevelStats stats;
    stats.k = k;
    for (int idx : tree.level(k)) {
      const TreeNode& node = tree.nodes()[idx];
      ++stats.community_count;
      if (node.is_main) {
        stats.main_size = node.size;
      } else {
        ++stats.parallel_count;
        stats.largest_parallel_size =
            std::max(stats.largest_parallel_size, node.size);
      }
    }
    out.push_back(stats);
  }
  return out;
}

}  // namespace kcc
