// Almost-exact CPM engine (Baudin, Danisch, Kirgizov, Magnien 2021,
// arXiv 2110.01213).
//
// The exact engines all materialize the clique-overlap relation — O(C^2)
// pairs in the worst case, and the measured wall/RSS bottleneck at scale.
// This engine percolates WITHOUT the overlap join, in two stages per
// clique:
//
//   1. Filter (Baudin et al.): each node carries the list of communities
//      (union-find roots over cliques) it appeared in so far this level; a
//      community carrying >= k-1 distinct nodes of clique c is a merge
//      *candidate*. Counting against the community's node union
//      over-approximates the pairwise clique overlap, so the filter can
//      admit false candidates — but never misses a true merge (every
//      clique of a community contributes all its nodes to the union).
//   2. Witness verification: candidates are checked exactly against the
//      per-node clique index (is there a single processed live clique B
//      with |c ∩ B| >= k-1?), under a per-clique work budget. When the
//      budget is exhausted — dense hubs at scale — the remaining
//      candidates are accepted unverified, which is where the "almost"
//      enters.
//
// Memory is bounded by the membership lists plus the clique index
// (O(sum of clique sizes)) instead of the pair list. Within budget the
// output is exact; beyond it communities can merge that exact CPM keeps
// apart. Either way the output is a coarsening of the exact partition at
// every k — never a split — which keeps the nesting theorem intact: the
// filter and verify pass is this engine's join in the descending-k level
// loop it shares with sweep_cpm (cpm_detail::descend_levels), so each
// level coarsens the one above and the Fig. 4.2 community tree is valid by
// construction. The k = 2 level (the components of the cliques' nodes,
// percolate_k2) is computed exactly.
//
// The gap is measured, not trusted: cpm/compare.h scores almost-exact
// results against an exact engine per k (best-match Jaccard / community
// F1), check::differential gates it at F1 >= 0.99 on the seeded families,
// and bench/perf_cpm.cpp records gap-vs-k curves in BENCH_cpm_almost.json.
#pragma once

#include <cstdint>
#include <vector>

#include "cpm/community_tree.h"
#include "cpm/cpm.h"
#include "graph/graph.h"

namespace kcc {

/// Work/memory accounting of one almost-exact run (also exported as
/// cpm_almost_* metrics).
struct AlmostCpmStats {
  /// Membership-list entries scanned while collecting candidate
  /// communities — the analogue of the exact engines' overlap-pair work.
  std::uint64_t candidate_checks = 0;
  /// Union operations that actually merged two communities.
  std::uint64_t unions = 0;
  /// Cliques whose filter candidates went through exact witness
  /// verification (the budget held).
  std::uint64_t verifications = 0;
  /// Filter candidates refuted by verification: no single processed clique
  /// shared >= k-1 nodes. Each one is a merge the pure filter would have
  /// made and exact CPM would not.
  std::uint64_t filter_rejections = 0;
  /// Cliques whose verification budget ran out; their filter candidates
  /// were accepted unverified. Zero means the run was exact above k = 2.
  std::uint64_t verify_budget_exhausted = 0;
  /// Peak resident per-node membership entries across levels — the memory
  /// the engine holds where the exact engines hold the overlap pair list.
  std::uint64_t membership_entries_peak = 0;
};

/// Output of the almost-exact engine: standard CPM result shape plus the
/// nesting tree (built in the same descending-k pass) and run stats.
struct AlmostCpmResult {
  CpmResult cpm;
  CommunityTree tree;
  AlmostCpmStats stats;
};

/// Extracts almost-exact k-clique communities and the community tree over
/// a pre-enumerated maximal-clique set (each clique sorted, size >= 2,
/// nodes < g.num_nodes()) in one descending-k pass. Options are shared
/// with the exact engines; percolation is sequential, so `options.threads`
/// is unused. Only `g.num_nodes()` is read; the exact k = 2 level comes
/// from the clique table. `build_tree` = false skips the tree step.
AlmostCpmResult run_almost_cpm_on_cliques(const Graph& g,
                                          std::vector<NodeSet> cliques,
                                          const CpmOptions& options = {},
                                          bool build_tree = true);

}  // namespace kcc
