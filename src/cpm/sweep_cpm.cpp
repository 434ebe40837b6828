#include "cpm/sweep_cpm.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/union_find.h"
#include "cpm/percolate_detail.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {
namespace {

// Cached instrument handles (see obs/metrics.h: lookup locks, updates don't).
struct SweepMetrics {
  obs::Counter& pairs = obs::metrics().counter("cpm_sweep_pairs_total");
  obs::Counter& edge_links =
      obs::metrics().counter("cpm_sweep_edge_links_total");
  obs::Counter& merges = obs::metrics().counter("cpm_sweep_merges_total");
  obs::Gauge& resident_bytes =
      obs::metrics().gauge("cpm_sweep_resident_pair_bytes");
  obs::Gauge& rss_bytes = obs::metrics().gauge("cpm_sweep_rss_bytes");
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics m;
  return m;
}

// The sweep's pair store: one bucket per overlap value, so filing a pair is
// its place in the descending counting sort. The fill runs once, then each
// level drains one bucket and frees it.
class PairBuckets {
 public:
  PairBuckets(std::size_t num_buckets, const char* caller,
              SweepCpmStats& stats)
      : buckets_(num_buckets), caller_(caller), stats_(stats) {}

  // Files the pair of cliques `a`, `b` (ids into the sweep's table) that
  // share `overlap` nodes.
  void add(CliqueId a, CliqueId b, std::size_t overlap) {
    // Two distinct maximal cliques share at most min(|A|, |B|) - 1 nodes.
    require(overlap < buckets_.size(), caller_, ": overlap ", overlap,
            " exceeds the clique-size bound");
    buckets_[overlap].push_back(PackedPair{a, b});
  }

  // The fill is done: count the pairs, record the peak (resident bytes
  // only shrink from here on) and publish the pair-store metrics.
  void finish_fill() {
    for (const auto& bucket : buckets_) {
      stats_.pairs += bucket.size();
      if (!bucket.empty()) ++stats_.buckets;
    }
    stats_.resident_pair_bytes_peak = stats_.pairs * sizeof(PackedPair);
    SweepMetrics& m = sweep_metrics();
    m.pairs.inc(stats_.pairs);
    m.resident_bytes.set(
        static_cast<std::int64_t>(stats_.resident_pair_bytes_peak));
    m.rss_bytes.set(static_cast<std::int64_t>(obs::current_rss_bytes()));
  }

  // Unites every pair of one overlap value. Order within the bucket does
  // not affect the components, hence not the output.
  void drain(std::size_t overlap, UnionFind& uf) {
    if (overlap >= buckets_.size()) return;
    std::vector<PackedPair>& bucket = buckets_[overlap];
    std::uint64_t merges = 0;
    for (const PackedPair& p : bucket) merges += uf.unite(p.a, p.b);
    stats_.merges += merges;
    std::vector<PackedPair>().swap(bucket);
  }

 private:
  // 8 bytes per pair, vs 12 in CliqueOverlap: the overlap is encoded by
  // which bucket the pair lives in.
  struct PackedPair {
    CliqueId a = 0;
    CliqueId b = 0;
  };

  std::vector<std::vector<PackedPair>> buckets_;  // [o] = pairs of overlap o
  const char* caller_;
  SweepCpmStats& stats_;
};

// Level 3 from the clique table alone. Two distinct maximal cliques share
// >= 2 nodes exactly when they share an edge, so uniting the live cliques
// (size >= 3) that hold a common edge yields exactly the level-3
// components, and no overlap-2 pair is ever stored. Each clique's edges
// (u, v), u < v, are grouped by u: within u's group, first[v] is the first
// clique seen holding (u, v) and every later holder is united with it;
// stamp[v] == u + 1 marks first[v] as set for the current group.
void chain_shared_edges(const std::vector<NodeSet>& cliques,
                        const std::vector<CliqueId>& live,
                        std::size_t num_nodes, UnionFind& uf,
                        SweepCpmStats& stats) {
  KCC_SPAN("cpm/edge_chain");
  // The groups as one CSR over u: a clique joins the group of each of its
  // nodes but the largest. After the fill, end[u] is where u's group ends
  // and end[u - 1] where it begins.
  std::vector<std::uint32_t> end(num_nodes + 1, 0);
  for (CliqueId c : live) {
    const NodeSet& q = cliques[c];
    for (std::size_t i = 0; i + 1 < q.size(); ++i) ++end[q[i] + 1];
  }
  for (std::size_t u = 0; u < num_nodes; ++u) end[u + 1] += end[u];
  std::vector<CliqueId> group(end[num_nodes]);
  for (CliqueId c : live) {
    const NodeSet& q = cliques[c];
    for (std::size_t i = 0; i + 1 < q.size(); ++i) group[end[q[i]]++] = c;
  }

  std::vector<CliqueId> first(num_nodes);
  std::vector<NodeId> stamp(num_nodes, 0);
  std::uint64_t links = 0;
  std::uint64_t merges = 0;
  std::uint32_t begin = 0;
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (std::uint32_t i = begin; i < end[u]; ++i) {
      const CliqueId c = group[i];
      const NodeSet& q = cliques[c];
      for (auto v = std::upper_bound(q.begin(), q.end(), u); v != q.end();
           ++v) {
        if (stamp[*v] != u + 1) {
          stamp[*v] = u + 1;
          first[*v] = c;
        } else {
          ++links;
          merges += uf.unite(first[*v], c);
        }
      }
    }
    begin = end[u];
  }
  stats.edge_links += links;
  stats.merges += merges;
}

// The shared body of every entry point: the descending-k loop. Level 3
// chains through shared edges; every higher level k drains the bucket of
// overlap k-1, filled once up front by `fill(buckets, table, min_overlap)`
// with the pairs sharing >= min_overlap nodes, whose endpoints have size
// >= k and so are already live.
template <typename Fill>
SweepCpmResult sweep(std::size_t num_nodes, std::vector<NodeSet> cliques,
                     const CpmOptions& options, bool build_tree,
                     const char* caller, Fill&& fill) {
  SweepCpmResult out;
  SweepCpmStats& stats = out.stats;
  std::optional<PairBuckets> buckets;  // engaged iff a level k >= 3 runs
  const std::vector<NodeSet>* table = nullptr;
  cpm_detail::LevelJoin join;
  join.prepare = [&](const std::vector<NodeSet>& prepared,
                     std::size_t lowest) {
    table = &prepared;
    std::size_t max_size = 0;
    for (const auto& c : prepared) max_size = std::max(max_size, c.size());
    buckets.emplace(max_size, caller, stats);
    KCC_SPAN("sweep_cpm/clique_overlaps");
    // Level k consumes overlap k-1 and level 3 none, so overlaps below
    // max(3, lowest - 1) are never stored.
    const std::size_t min_overlap = std::max<std::size_t>(3, lowest - 1);
    fill(*buckets, prepared, min_overlap);
    buckets->finish_fill();
    KCC_LOG(kDebug) << caller << ": " << prepared.size() << " cliques, "
                    << stats.pairs << " overlap pairs >= " << min_overlap;
  };
  join.unite_level = [&](std::size_t k, UnionFind& uf,
                         const std::vector<CliqueId>& live) {
    if (k == 3) {
      chain_shared_edges(*table, live, num_nodes, uf, stats);
    } else {
      buckets->drain(k - 1, uf);
    }
  };
  cpm_detail::LevelSweep levels =
      cpm_detail::descend_levels(num_nodes, std::move(cliques), options,
                                 caller, "sweep_cpm", join, build_tree);
  out.cpm = std::move(levels.cpm);
  out.tree = std::move(levels.tree);
  if (buckets) {
    cpm_detail::note_join_ops(stats.pairs + stats.edge_links);
    SweepMetrics& m = sweep_metrics();
    m.edge_links.inc(stats.edge_links);
    m.merges.inc(stats.merges);
  }
  return out;
}

}  // namespace

SweepCpmResult run_sweep_cpm_on_cliques(std::size_t num_nodes,
                                        std::vector<NodeSet> cliques,
                                        const CpmOptions& options,
                                        bool build_tree) {
  return sweep(num_nodes, std::move(cliques), options, build_tree,
               "run_sweep_cpm_on_cliques",
               [&](PairBuckets& buckets, const std::vector<NodeSet>& table,
                   std::size_t min_overlap) {
                 for_each_clique_overlaps(
                     table, num_nodes, min_overlap,
                     [&](std::span<const CliqueOverlap> pairs) {
                       for (const CliqueOverlap& p : pairs) {
                         buckets.add(p.a, p.b, p.overlap);
                       }
                     });
               });
}

SweepCpmResult run_sweep_cpm_on_cliques(const Graph& g,
                                        std::vector<NodeSet> cliques,
                                        const CpmOptions& options,
                                        bool build_tree) {
  return run_sweep_cpm_on_cliques(g.num_nodes(), std::move(cliques), options,
                                  build_tree);
}

SweepCpmResult run_sweep_cpm_prejoined(const Graph& g,
                                       std::vector<NodeSet> cliques,
                                       std::vector<CliqueOverlap> overlaps,
                                       const CpmOptions& options,
                                       bool build_tree) {
  return sweep(g.num_nodes(), std::move(cliques), options, build_tree,
               "run_sweep_cpm_prejoined",
               [&](PairBuckets& buckets, const std::vector<NodeSet>&,
                   std::size_t min_overlap) {
                 for (const CliqueOverlap& p : overlaps) {
                   if (p.overlap >= min_overlap) {
                     buckets.add(p.a, p.b, p.overlap);
                   }
                 }
                 std::vector<CliqueOverlap>().swap(overlaps);
               });
}

}  // namespace kcc
