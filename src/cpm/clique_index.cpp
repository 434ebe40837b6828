#include "cpm/clique_index.h"

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {
namespace {

// Overlap-join instruments. Candidate touches count every clique pair the
// stamp array examined; emitted pairs are the ones that met min_overlap.
// Both are accumulated per join and flushed with one atomic add.
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
// A clique of size <= min_overlap cannot reach min_overlap with a clique
// that does not contain it, so it is neither indexed nor probed.
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

std::vector<CliqueOverlap> compute_clique_overlaps_unsorted(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& /*pool*/) {
  std::vector<CliqueOverlap> out;
  for_each_clique_overlaps(cliques, num_nodes, min_overlap,
                           [&](std::span<const CliqueOverlap> pairs) {
                             out.insert(out.end(), pairs.begin(), pairs.end());
                           });
  return out;
}

}  // namespace kcc
