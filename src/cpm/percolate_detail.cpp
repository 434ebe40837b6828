#include "cpm/percolate_detail.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/set_ops.h"
#include "common/union_find.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace kcc::cpm_detail {
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

// Groups the live cliques by union-find root into level k, node sets
// materialized from `cliques`. `live` is ascending, so every community's
// clique ids are too. The root -> community-slot map is epoch-stamped, so
// a snapshot is O(|live|) with no per-level clearing. A community's node
// set is the distinct nodes of its cliques: a per-node stamp (one epoch per
// community) drops the repeats as they are gathered, so only the distinct
// nodes are sorted, not the clique-node multiset, which in the dense core
// is many times larger.
class Snapshotter {
 public:
  Snapshotter(std::size_t num_cliques, std::size_t num_nodes)
      : stamp_(num_cliques, 0), slot_(num_cliques, 0),
        node_stamp_(num_nodes, 0) {}

  CommunitySet snapshot(std::size_t k, UnionFind& uf,
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
      const std::uint64_t mark = ++node_epoch_;
      for (CliqueId c : community.clique_ids) {
        for (NodeId x : cliques[c]) {
          if (node_stamp_[x] != mark) {
            node_stamp_[x] = mark;
            community.nodes.push_back(x);
          }
        }
      }
      std::sort(community.nodes.begin(), community.nodes.end());
    }
    canonicalise(set);
    return set;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> slot_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint64_t> node_stamp_;
  std::uint64_t node_epoch_ = 0;
};

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

void canonicalise(CommunitySet& set) {
  std::sort(set.communities.begin(), set.communities.end(),
            [](const Community& a, const Community& b) {
              if (a.nodes.size() != b.nodes.size())
                return a.nodes.size() > b.nodes.size();
              return a.nodes < b.nodes;
            });
  for (CommunityId id = 0; id < set.communities.size(); ++id) {
    set.communities[id].id = id;
  }
}

CommunitySet percolate_k2(std::size_t num_nodes,
                          const std::vector<NodeSet>& cliques) {
  CommunitySet set;
  set.k = 2;
  UnionFind uf(num_nodes);
  for (const NodeSet& q : cliques) {
    for (std::size_t i = 1; i < q.size(); ++i) uf.unite(q[0], q[i]);
  }
  // Root -> community index. A node in no clique keeps kNoCommunity.
  std::vector<std::uint32_t> community_of_root(num_nodes,
                                               CommunitySet::kNoCommunity);
  for (CliqueId c = 0; c < cliques.size(); ++c) {
    std::uint32_t& idx = community_of_root[uf.find(cliques[c][0])];
    if (idx == CommunitySet::kNoCommunity) {
      idx = static_cast<std::uint32_t>(set.communities.size());
      Community community;
      community.k = 2;
      set.communities.push_back(std::move(community));
    }
    set.communities[idx].clique_ids.push_back(c);  // ascending c => sorted
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::uint32_t idx = community_of_root[uf.find(v)];
    if (idx != CommunitySet::kNoCommunity) {
      set.communities[idx].nodes.push_back(v);  // ascending v => sorted
    }
  }
  canonicalise(set);
  return set;
}

void validate_cpm_input(std::size_t num_nodes, std::size_t min_k,
                        const std::vector<NodeSet>& cliques,
                        const char* where) {
  require(min_k >= 2, where, ": min_k must be >= 2");
  for (const auto& c : cliques) {
    require(c.size() >= 2 && is_sorted_unique(c),
            where, ": cliques must be sorted and of size >= 2");
    require(c.back() < num_nodes, where, ": clique node ", c.back(),
            " is out of range for a graph of ", num_nodes, " nodes");
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

LevelSweep descend_levels(std::size_t num_nodes, std::vector<NodeSet> cliques,
                          const CpmOptions& options, const char* where,
                          const char* spans, const LevelJoin& join,
                          bool build_tree) {
  // Run-report stages: the levels are `percolate`, the tree step `tree`.
  std::optional<obs::StageScope> percolate_stage(std::in_place, "percolate");
  validate_cpm_input(num_nodes, options.min_k, cliques, where);
  LevelSweep out;
  CpmResult& result = out.cpm;
  result.cliques = std::move(cliques);
  result.min_k = options.min_k;
  result.max_k = resolve_max_k(options.min_k, options.max_k, result.cliques);
  if (result.max_k < result.min_k) return out;
  result.by_k.resize(result.max_k - result.min_k + 1);
  // Stores one canonical level; levels arrive from max_k down.
  auto emit = [&result](CommunitySet set) {
    note_community_set(set);
    result.by_k[set.k - result.min_k] = std::move(set);
  };
  const std::string prefix = spans;

  // ---- the k >= 3 levels: one union-find, coarsened level by level ----
  if (result.max_k >= 3) {
    const std::size_t lowest = std::max<std::size_t>(3, result.min_k);
    join.prepare(result.cliques, lowest);

    const std::size_t num_cliques = result.cliques.size();
    std::size_t max_size = 0;
    for (const auto& c : result.cliques) {
      max_size = std::max(max_size, c.size());
    }
    std::vector<std::vector<CliqueId>> cliques_of_size(max_size + 1);
    for (CliqueId c = 0; c < num_cliques; ++c) {
      cliques_of_size[result.cliques[c].size()].push_back(c);
    }

    const obs::ScopedSpan sweep_span(prefix + "/sweep");
    UnionFind uf(num_cliques);
    Snapshotter snapshotter(num_cliques, num_nodes);
    std::vector<CliqueId> live;  // cliques of size >= k, ascending
    for (std::size_t k = max_size; k >= lowest; --k) {
      // Activate the cliques of size k; both ranges are ascending, so one
      // in-place merge keeps `live` sorted.
      const std::size_t old_live = live.size();
      live.insert(live.end(), cliques_of_size[k].begin(),
                  cliques_of_size[k].end());
      std::inplace_merge(live.begin(),
                         live.begin() + static_cast<std::ptrdiff_t>(old_live),
                         live.end());
      join.unite_level(k, uf, live);
      if (k > result.max_k) continue;  // above the requested range

      // After level k's merges, the components over the live cliques ARE
      // the k-clique communities.
      const obs::ScopedSpan span(prefix + "/emit_k=" + std::to_string(k));
      emit(snapshotter.snapshot(k, uf, live, result.cliques));
    }
  }

  // ---- the k = 2 level: the cliques' node components ----
  if (result.min_k == 2) {
    const obs::ScopedSpan span(prefix + "/percolate_k2");
    emit(percolate_k2(num_nodes, result.cliques));
  }
  percolate_stage.reset();
  if (!build_tree) return out;

  const obs::StageScope tree_stage("tree");
  const obs::ScopedSpan span(prefix + "/tree");
  out.tree = CommunityTree::build(result);
  return out;
}

}  // namespace kcc::cpm_detail
