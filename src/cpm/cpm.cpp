#include "cpm/cpm.h"

#include <span>
#include <string>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/set_ops.h"
#include "common/thread_pool.h"
#include "common/union_find.h"
#include "cpm/clique_index.h"
#include "cpm/percolate_detail.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace kcc {

namespace {

using cpm_detail::canonicalise;
using cpm_detail::percolate_k2;

// General k >= 3 percolation over the precomputed overlap pair list, in
// any pair order: the groups and the canonical order do not depend on it.
CommunitySet percolate_k(std::size_t k, const std::vector<NodeSet>& cliques,
                         const std::vector<CliqueOverlap>& overlaps) {
  CommunitySet set;
  set.k = k;

  // Local re-labelling of eligible cliques (size >= k).
  constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> local_of(cliques.size(), kAbsent);
  std::vector<CliqueId> global_of;
  for (CliqueId c = 0; c < cliques.size(); ++c) {
    if (cliques[c].size() >= k) {
      local_of[c] = static_cast<std::uint32_t>(global_of.size());
      global_of.push_back(c);
    }
  }
  if (global_of.empty()) return set;

  UnionFind uf(global_of.size());
  std::uint64_t join_ops = 0;
  for (const CliqueOverlap& o : overlaps) {
    if (o.overlap + 1 >= k && local_of[o.a] != kAbsent &&
        local_of[o.b] != kAbsent) {
      uf.unite(local_of[o.a], local_of[o.b]);
      ++join_ops;
    }
  }
  cpm_detail::note_join_ops(join_ops);

  for (auto& group : uf.groups()) {
    Community community;
    community.k = k;
    community.clique_ids.reserve(group.size());
    for (std::uint32_t local : group) {
      community.clique_ids.push_back(global_of[local]);
    }
    // group is ascending in local ids and local ids are ascending in global
    // ids, so clique_ids is sorted.
    for (CliqueId c : community.clique_ids) {
      community.nodes.insert(community.nodes.end(), cliques[c].begin(),
                             cliques[c].end());
    }
    sort_unique(community.nodes);
    set.communities.push_back(std::move(community));
  }
  canonicalise(set);
  return set;
}

// run_cpm_on_cliques on the caller's thread budget.
CpmResult percolate_cliques(const Graph& g, std::vector<NodeSet> cliques,
                            const CpmOptions& options, ThreadPool& pool) {
  cpm_detail::validate_cpm_input(g.num_nodes(), options.min_k, cliques,
                                 "run_cpm_on_cliques");

  CpmResult result;
  result.cliques = std::move(cliques);
  result.min_k = options.min_k;
  result.max_k =
      cpm_detail::resolve_max_k(options.min_k, options.max_k, result.cliques);
  if (result.max_k < result.min_k) return result;

  // Overlap pairs are only needed for k >= 3 (threshold k-1 >= 2).
  std::vector<CliqueOverlap> overlaps;
  if (result.max_k >= 3) {
    KCC_SPAN("cpm/clique_overlaps");
    for_each_clique_overlaps(result.cliques, g.num_nodes(), 2,
                             [&](std::span<const CliqueOverlap> pairs) {
                               overlaps.insert(overlaps.end(), pairs.begin(),
                                               pairs.end());
                             });
  }
  KCC_LOG(kDebug) << "run_cpm: " << result.cliques.size() << " cliques, "
                  << overlaps.size() << " overlap pairs, k in ["
                  << result.min_k << ", " << result.max_k << "]";

  result.by_k.resize(result.max_k - result.min_k + 1);
  // Per-k percolations are independent: the LP-CPM parallel axis.
  {
    KCC_SPAN("cpm/percolate_all_k");
    parallel_for_dynamic(
        pool, result.by_k.size(), /*grain=*/1,
        [&](std::size_t /*worker*/, std::size_t i, std::size_t /*end*/) {
          const std::size_t k = result.min_k + i;
          const obs::ScopedSpan span("cpm/percolate_k=" + std::to_string(k));
          result.by_k[i] = k == 2 ? percolate_k2(g.num_nodes(), result.cliques)
                                  : percolate_k(k, result.cliques, overlaps);
          cpm_detail::note_community_set(result.by_k[i]);
        });
  }
  return result;
}

}  // namespace

CpmResult run_cpm_on_cliques(const Graph& g, std::vector<NodeSet> cliques,
                             const CpmOptions& options) {
  ThreadPool pool(options.threads);
  return percolate_cliques(g, std::move(cliques), options, pool);
}

CpmResult run_cpm(const Graph& g, const CpmOptions& options) {
  require(options.min_k >= 2, "run_cpm: min_k must be >= 2");
  ThreadPool pool(options.threads);
  clique::Options copt;
  copt.min_size = 2;
  std::vector<NodeSet> cliques = clique::Enumerator(g, copt).collect(pool);
  return percolate_cliques(g, std::move(cliques), options, pool);
}

}  // namespace kcc
