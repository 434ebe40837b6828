#include "cpm/clique_index.h"

#include <algorithm>

#include "common/error.h"
#include "common/set_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {
namespace {

// Overlap-join instruments. Candidate touches count every clique pair the
// stamp array examined; emitted pairs are the ones that met min_overlap.
// Both are accumulated per shard/batch and flushed with one atomic add.
struct OverlapMetrics {
  obs::Counter& candidates =
      obs::metrics().counter("cpm_overlap_candidates_total");
  obs::Counter& pairs = obs::metrics().counter("cpm_overlap_pairs_total");
};

OverlapMetrics& overlap_metrics() {
  static OverlapMetrics m;
  return m;
}

}  // namespace

std::vector<std::vector<CliqueId>> build_node_clique_index(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_size) {
  std::vector<std::vector<CliqueId>> index(num_nodes);
  for (CliqueId c = 0; c < cliques.size(); ++c) {
    if (cliques[c].size() < min_size) continue;
    for (NodeId v : cliques[c]) {
      require(v < num_nodes, "build_node_clique_index: node out of range");
      index[v].push_back(c);
    }
  }
  return index;  // per-node lists are ascending because c increases
}

namespace {

// Overlap pairs (a, b) with b fixed, discovered through b's nodes. A stamp
// array deduplicates candidates; counting hits per candidate *is* the
// overlap size, because clique a appears in the index list of exactly the
// |A ∩ B| shared nodes. Returns the number of candidate cliques examined.
// A clique of size <= min_overlap cannot reach min_overlap with a distinct
// maximal clique, so it is neither indexed nor probed.
std::size_t overlaps_for_clique(const std::vector<NodeSet>& cliques,
                                const std::vector<std::vector<CliqueId>>& index,
                                CliqueId b, std::size_t min_overlap,
                                std::vector<std::uint32_t>& hit_count,
                                std::vector<CliqueId>& touched,
                                std::vector<CliqueOverlap>& out) {
  touched.clear();
  if (cliques[b].size() <= min_overlap) return 0;
  for (NodeId v : cliques[b]) {
    for (CliqueId a : index[v]) {
      if (a >= b) break;  // index lists are ascending; only a < b wanted
      if (hit_count[a] == 0) touched.push_back(a);
      ++hit_count[a];
    }
  }
  for (CliqueId a : touched) {
    if (hit_count[a] >= min_overlap) {
      out.push_back({a, b, hit_count[a]});
    }
    hit_count[a] = 0;
  }
  return touched.size();
}

}  // namespace

void for_each_clique_overlaps(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap,
    const std::function<void(std::span<const CliqueOverlap>)>& sink) {
  require(min_overlap >= 1,
          "for_each_clique_overlaps: min_overlap must be >= 1");
  KCC_SPAN("cpm/overlap_join");
  const auto index = build_node_clique_index(cliques, num_nodes, min_overlap + 1);
  std::vector<std::uint32_t> hit_count(cliques.size(), 0);
  std::vector<CliqueId> touched;
  std::vector<CliqueOverlap> pairs;
  std::uint64_t candidates = 0;
  std::uint64_t emitted = 0;
  for (CliqueId b = 0; b < cliques.size(); ++b) {
    pairs.clear();
    candidates += overlaps_for_clique(cliques, index, b, min_overlap,
                                      hit_count, touched, pairs);
    emitted += pairs.size();
    sink(pairs);
  }
  overlap_metrics().candidates.inc(candidates);
  overlap_metrics().pairs.inc(emitted);
}

// The merged pair list is ordered by shard, i.e. by b-ranges of equal
// clique count, with no global sort.
std::vector<CliqueOverlap> compute_clique_overlaps_unsorted(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& pool) {
  require(min_overlap >= 1,
          "compute_clique_overlaps_unsorted: min_overlap must be >= 1");
  KCC_SPAN("cpm/overlap_join");
  const auto index = build_node_clique_index(cliques, num_nodes, min_overlap + 1);

  // Shard cliques into contiguous ranges; each task owns a result slot, so
  // the merged output is independent of scheduling.
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(cliques.size(), pool.thread_count() * 8));
  const std::size_t shard_size = (cliques.size() + shards - 1) / shards;
  std::vector<std::vector<CliqueOverlap>> slots(shards);

  parallel_for(pool, shards, [&](std::size_t s) {
    const CliqueId begin = static_cast<CliqueId>(s * shard_size);
    const CliqueId end = static_cast<CliqueId>(
        std::min(cliques.size(), (s + 1) * shard_size));
    std::vector<std::uint32_t> hit_count(cliques.size(), 0);
    std::vector<CliqueId> touched;
    std::uint64_t candidates = 0;
    std::size_t emitted_before = slots[s].size();
    for (CliqueId b = begin; b < end; ++b) {
      candidates += overlaps_for_clique(cliques, index, b, min_overlap,
                                        hit_count, touched, slots[s]);
    }
    overlap_metrics().candidates.inc(candidates);
    overlap_metrics().pairs.inc(slots[s].size() - emitted_before);
  });

  std::size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  std::vector<CliqueOverlap> out;
  out.reserve(total);
  for (auto& slot : slots) {
    out.insert(out.end(), slot.begin(), slot.end());
  }
  return out;
}

}  // namespace kcc
