#include "cpm/cpm.h"

#include <algorithm>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/set_ops.h"
#include "common/thread_pool.h"
#include "common/union_find.h"
#include "cpm/clique_index.h"
#include "cpm/community_tree.h"
#include "cpm/percolate_detail.h"
#include "graph/graph_algorithms.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {

namespace cpm_detail {
namespace {

// Percolation instruments. Join ops are counted per-k in a local and flushed
// with one atomic add, so the union-find loop stays uninstrumented.
struct CpmMetrics {
  obs::Counter& join_ops = obs::metrics().counter("cpm_join_ops_total");
  obs::Counter& communities =
      obs::metrics().counter("cpm_communities_total");
  obs::Histogram& community_size = obs::metrics().histogram(
      "cpm_community_size_nodes",
      obs::Histogram::exponential_bounds(1.0, 2.0, 16));
};

CpmMetrics& cpm_metrics() {
  static CpmMetrics m;
  return m;
}

}  // namespace

void note_community_set(const CommunitySet& set) {
  CpmMetrics& m = cpm_metrics();
  m.communities.inc(set.communities.size());
  for (const Community& c : set.communities) {
    m.community_size.observe(static_cast<double>(c.size()));
  }
  obs::metrics()
      .gauge("cpm_communities_k" + std::to_string(set.k))
      .set(static_cast<std::int64_t>(set.communities.size()));
}

void note_join_ops(std::uint64_t join_ops) {
  cpm_metrics().join_ops.inc(join_ops);
}

void canonicalise(CommunitySet& set, std::size_t num_cliques) {
  std::sort(set.communities.begin(), set.communities.end(),
            [](const Community& a, const Community& b) {
              if (a.nodes.size() != b.nodes.size())
                return a.nodes.size() > b.nodes.size();
              return a.nodes < b.nodes;
            });
  set.community_of_clique.assign(num_cliques, CommunitySet::kNoCommunity);
  for (CommunityId id = 0; id < set.communities.size(); ++id) {
    set.communities[id].id = id;
    for (CliqueId c : set.communities[id].clique_ids) {
      set.community_of_clique[c] = id;
    }
  }
}

CommunitySet percolate_k2(const Graph& g, const std::vector<NodeSet>& cliques) {
  CommunitySet set;
  set.k = 2;
  const ComponentLabeling labels = connected_components(g);
  const auto sizes = labels.sizes();

  // Component id -> community index (only components with >= 2 nodes).
  std::vector<std::uint32_t> community_of_component(labels.count,
                                                    CommunitySet::kNoCommunity);
  for (std::uint32_t comp = 0; comp < labels.count; ++comp) {
    if (sizes[comp] >= 2) {
      community_of_component[comp] =
          static_cast<std::uint32_t>(set.communities.size());
      Community c;
      c.k = 2;
      set.communities.push_back(std::move(c));
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto idx = community_of_component[labels.component_of[v]];
    if (idx != CommunitySet::kNoCommunity) {
      set.communities[idx].nodes.push_back(v);  // ascending v => sorted
    }
  }
  for (CliqueId c = 0; c < cliques.size(); ++c) {
    const auto idx = community_of_component[labels.component_of[cliques[c][0]]];
    require(idx != CommunitySet::kNoCommunity,
            "percolate_k2: clique in a size-1 component");
    set.communities[idx].clique_ids.push_back(c);  // ascending c => sorted
  }
  canonicalise(set, cliques.size());
  return set;
}

void validate_cpm_input(std::size_t min_k, const std::vector<NodeSet>& cliques,
                        const char* where) {
  require(min_k >= 2, where, ": min_k must be >= 2");
  for (const auto& c : cliques) {
    require(c.size() >= 2 && is_sorted_unique(c),
            where, ": cliques must be sorted and of size >= 2");
  }
}

std::size_t resolve_max_k(std::size_t min_k, std::size_t max_k,
                          const std::vector<NodeSet>& cliques) {
  std::size_t max_clique = 0;
  for (const auto& c : cliques) max_clique = std::max(max_clique, c.size());
  const std::size_t resolved =
      max_k == 0 ? max_clique : std::min(max_k, max_clique);
  // max_k < min_k encodes the empty range; has_k() is false for every k.
  return resolved < min_k ? min_k - 1 : resolved;
}

SweepSnapshotter::SweepSnapshotter(std::size_t num_cliques)
    : stamp_(num_cliques, 0), slot_(num_cliques, 0) {}

CommunitySet SweepSnapshotter::snapshot(std::size_t k, UnionFind& uf,
                                        const std::vector<CliqueId>& live,
                                        const std::vector<NodeSet>& cliques) {
  CommunitySet set;
  set.k = k;
  ++epoch_;
  for (CliqueId c : live) {
    const std::uint32_t root = uf.find(c);
    if (stamp_[root] != epoch_) {
      stamp_[root] = epoch_;
      slot_[root] = static_cast<std::uint32_t>(set.communities.size());
      Community community;
      community.k = k;
      set.communities.push_back(std::move(community));
    }
    set.communities[slot_[root]].clique_ids.push_back(c);
  }
  for (Community& community : set.communities) {
    // Activation appends size-k batches, so live is not globally sorted.
    std::sort(community.clique_ids.begin(), community.clique_ids.end());
    for (CliqueId c : community.clique_ids) {
      community.nodes.insert(community.nodes.end(), cliques[c].begin(),
                             cliques[c].end());
    }
    sort_unique(community.nodes);
  }
  return set;
}

DescendingLevelEmitter::DescendingLevelEmitter(const Graph& g,
                                               CpmResult& result)
    : g_(g), result_(result), tree_levels_(result.by_k.size()) {}

void DescendingLevelEmitter::emit(CommunitySet set) {
  const std::size_t k = set.k;
  canonicalise(set, result_.cliques.size());
  note_community_set(set);
  if (k < result_.max_k) {
    auto& above = tree_levels_[k + 1 - result_.min_k];
    for (std::size_t i = 0; i < reps_above_.size(); ++i) {
      above[i].parent_id = set.community_of_clique[reps_above_[i]];
      require(above[i].parent_id != CommunitySet::kNoCommunity,
              "DescendingLevelEmitter: nesting parent missing");
    }
  }
  auto& links = tree_levels_[k - result_.min_k];
  links.resize(set.count());
  reps_above_.assign(set.count(), 0);
  for (CommunityId id = 0; id < set.count(); ++id) {
    links[id].size = set.communities[id].size();
    reps_above_[id] = set.communities[id].clique_ids.front();
  }
  result_.by_k[k - result_.min_k] = std::move(set);
}

void DescendingLevelEmitter::emit_k2() {
  CommunitySet set = percolate_k2(g_, result_.cliques);
  note_community_set(set);
  if (result_.max_k >= 3) {
    auto& above = tree_levels_[1];
    for (std::size_t i = 0; i < reps_above_.size(); ++i) {
      above[i].parent_id = set.community_of_clique[reps_above_[i]];
    }
  }
  auto& links = tree_levels_[0];
  links.resize(set.count());
  for (CommunityId id = 0; id < set.count(); ++id) {
    links[id].size = set.communities[id].size();
  }
  result_.by_k[0] = std::move(set);
}

CommunityTree DescendingLevelEmitter::finish() const {
  return CommunityTree::from_levels(result_.min_k, tree_levels_);
}

}  // namespace cpm_detail

namespace {

using cpm_detail::canonicalise;
using cpm_detail::percolate_k2;

// General k >= 3 percolation over the precomputed overlap pair list.
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
  canonicalise(set, cliques.size());
  return set;
}

}  // namespace

CpmResult run_cpm_on_cliques(const Graph& g, std::vector<NodeSet> cliques,
                             const CpmOptions& options) {
  cpm_detail::validate_cpm_input(options.min_k, cliques, "run_cpm_on_cliques");

  CpmResult result;
  result.cliques = std::move(cliques);
  result.min_k = options.min_k;
  result.max_k =
      cpm_detail::resolve_max_k(options.min_k, options.max_k, result.cliques);
  if (result.max_k < result.min_k) return result;

  ThreadPool pool(options.threads);

  // Overlap pairs are only needed for k >= 3 (threshold k-1 >= 2).
  std::vector<CliqueOverlap> overlaps;
  if (result.max_k >= 3) {
    KCC_SPAN("cpm/clique_overlaps");
    overlaps =
        compute_clique_overlaps(result.cliques, g.num_nodes(), 2, pool);
  }
  KCC_LOG(kDebug) << "run_cpm: " << result.cliques.size() << " cliques, "
                  << overlaps.size() << " overlap pairs, k in ["
                  << result.min_k << ", " << result.max_k << "]";

  result.by_k.resize(result.max_k - result.min_k + 1);
  // Per-k percolations are independent: the LP-CPM parallel axis.
  {
    KCC_SPAN("cpm/percolate_all_k");
    parallel_for(pool, result.by_k.size(), [&](std::size_t i) {
      const std::size_t k = result.min_k + i;
      const obs::ScopedSpan span("cpm/percolate_k=" + std::to_string(k));
      result.by_k[i] = k == 2 ? percolate_k2(g, result.cliques)
                              : percolate_k(k, result.cliques, overlaps);
      cpm_detail::note_community_set(result.by_k[i]);
    });
  }
  return result;
}

CpmResult run_cpm(const Graph& g, const CpmOptions& options) {
  require(options.min_k >= 2, "run_cpm: min_k must be >= 2");
  ThreadPool pool(options.threads);
  clique::Options copt;
  copt.min_size = 2;
  std::vector<NodeSet> cliques = clique::Enumerator(g, copt).collect(pool);
  return run_cpm_on_cliques(g, std::move(cliques), options);
}

}  // namespace kcc
