#include "cpm/community.h"

#include "common/error.h"

namespace kcc {

const CommunitySet& CpmResult::at(std::size_t k) const {
  require(has_k(k), "CpmResult::at: no communities computed for this k");
  return by_k[k - min_k];
}

CommunitySet& CpmResult::at(std::size_t k) {
  require(has_k(k), "CpmResult::at: no communities computed for this k");
  return by_k[k - min_k];
}

std::size_t CpmResult::total_communities() const {
  std::size_t total = 0;
  for (const auto& set : by_k) total += set.count();
  return total;
}

std::vector<std::size_t> CpmResult::unique_community_ks() const {
  std::vector<std::size_t> out;
  for (const auto& set : by_k) {
    if (set.count() == 1) out.push_back(set.k);
  }
  return out;
}

std::vector<CommunityId> clique_community_map(const CommunitySet& set,
                                              std::size_t num_cliques) {
  std::vector<CommunityId> map(num_cliques, CommunitySet::kNoCommunity);
  for (const Community& community : set.communities) {
    for (CliqueId c : community.clique_ids) {
      if (c < num_cliques) map[c] = community.id;
    }
  }
  return map;
}

}  // namespace kcc
