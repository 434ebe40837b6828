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

// 8 bytes per overlap pair — vs 12 in CliqueOverlap, whose overlap field is
// encoded here by which bucket the pair lives in.
struct PackedPair {
  CliqueId a = 0;
  CliqueId b = 0;
};

// Cached instrument handles (see obs/metrics.h: lookup locks, updates don't).
struct SweepMetrics {
  obs::Counter& pairs = obs::metrics().counter("cpm_sweep_pairs_total");
  obs::Gauge& resident_bytes =
      obs::metrics().gauge("cpm_sweep_resident_pair_bytes");
  obs::Gauge& rss_bytes = obs::metrics().gauge("cpm_sweep_rss_bytes");
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics m;
  return m;
}

// The overlap pairs, one bucket per overlap value: the buckets double as
// the descending counting sort. The join fills them once; each level
// drains one bucket and frees it.
class PairBuckets {
 public:
  PairBuckets(std::size_t num_buckets, const char* caller)
      : buckets_(num_buckets), caller_(caller) {}

  void add(std::size_t overlap, CliqueId a, CliqueId b) {
    // Two distinct maximal cliques share at most min(|A|, |B|) - 1 nodes.
    require(overlap < buckets_.size(), caller_, ": overlap ", overlap,
            " exceeds the clique-size bound");
    buckets_[overlap].push_back(PackedPair{a, b});
    ++stats_.pairs;
  }

  // The join is done: record the peak (resident bytes only shrink from
  // here on) and publish the pair-store metrics.
  void finish_fill() {
    for (const auto& bucket : buckets_) {
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
  std::uint64_t drain(std::size_t overlap, UnionFind& uf) {
    if (overlap >= buckets_.size()) return 0;
    std::vector<PackedPair>& bucket = buckets_[overlap];
    for (const PackedPair& p : bucket) uf.unite(p.a, p.b);
    const std::uint64_t united = bucket.size();
    std::vector<PackedPair>().swap(bucket);
    return united;
  }

  const SweepCpmStats& stats() const { return stats_; }

 private:
  std::vector<std::vector<PackedPair>> buckets_;  // [o] = pairs of overlap o
  const char* caller_;
  SweepCpmStats stats_;
};

// The shared body of every entry point: the descending-k loop. The join
// buckets every pair `fill` produces once, up front (each pair (a, b,
// overlap) with overlap >= its min_overlap argument); level k drains the
// bucket of overlap k-1, whose endpoints have size >= k and so are already
// live.
template <typename Fill>
SweepCpmResult sweep(const Graph& g, std::vector<NodeSet> cliques,
                     const CpmOptions& options, const char* caller,
                     Fill&& fill) {
  std::optional<PairBuckets> buckets;  // engaged iff a level k >= 3 runs
  std::uint64_t join_ops = 0;
  cpm_detail::LevelJoin join;
  join.prepare = [&](const std::vector<NodeSet>& table, std::size_t lowest) {
    std::size_t max_size = 0;
    for (const auto& c : table) max_size = std::max(max_size, c.size());
    buckets.emplace(max_size, caller);
    KCC_SPAN("sweep_cpm/clique_overlaps");
    // Level k consumes overlap k-1, so smaller overlaps are never stored.
    fill(*buckets, table, lowest - 1);
    buckets->finish_fill();
    KCC_LOG(kDebug) << caller << ": " << table.size() << " cliques, "
                    << buckets->stats().pairs << " overlap pairs >= "
                    << lowest - 1;
  };
  join.unite_level = [&](std::size_t k, UnionFind& uf,
                         const std::vector<CliqueId>&) {
    join_ops += buckets->drain(k - 1, uf);
  };
  cpm_detail::LevelSweep levels = cpm_detail::descend_levels(
      g, std::move(cliques), options, caller, "sweep_cpm", join);
  SweepCpmResult out;
  out.cpm = std::move(levels.cpm);
  out.tree = std::move(levels.tree);
  if (buckets) {
    cpm_detail::note_join_ops(join_ops);
    out.stats = buckets->stats();
  }
  return out;
}

}  // namespace

SweepCpmResult run_sweep_cpm_on_cliques(const Graph& g,
                                        std::vector<NodeSet> cliques,
                                        const CpmOptions& options) {
  return sweep(g, std::move(cliques), options, "run_sweep_cpm_on_cliques",
               [&](PairBuckets& buckets, const std::vector<NodeSet>& table,
                   std::size_t min_overlap) {
                 for_each_clique_overlaps(
                     table, g.num_nodes(), min_overlap,
                     [&](std::span<const CliqueOverlap> pairs) {
                       for (const CliqueOverlap& p : pairs) {
                         buckets.add(p.overlap, p.a, p.b);
                       }
                     });
               });
}

SweepCpmResult run_sweep_cpm_prejoined(const Graph& g,
                                       std::vector<NodeSet> cliques,
                                       std::vector<CliqueOverlap> overlaps,
                                       const CpmOptions& options) {
  return sweep(g, std::move(cliques), options, "run_sweep_cpm_prejoined",
               [&](PairBuckets& buckets, const std::vector<NodeSet>&,
                   std::size_t min_overlap) {
                 for (const CliqueOverlap& p : overlaps) {
                   if (p.overlap >= min_overlap) {
                     buckets.add(p.overlap, p.a, p.b);
                   }
                 }
                 overlaps.clear();
                 overlaps.shrink_to_fit();
               });
}

}  // namespace kcc
