#include "cpm/almost_cpm.h"

#include <algorithm>

#include "common/union_find.h"
#include "cpm/clique_index.h"
#include "cpm/percolate_detail.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace kcc {
namespace {

struct AlmostMetrics {
  obs::Counter& candidate_checks;
  obs::Counter& unions;
  obs::Counter& verifications;
  obs::Counter& filter_rejections;
  obs::Counter& verify_budget_exhausted;
  obs::Gauge& membership_peak;
};

AlmostMetrics& almost_metrics() {
  static AlmostMetrics m{
      obs::metrics().counter("cpm_almost_candidate_checks_total"),
      obs::metrics().counter("cpm_almost_unions_total"),
      obs::metrics().counter("cpm_almost_verifications_total"),
      obs::metrics().counter("cpm_almost_filter_rejections_total"),
      obs::metrics().counter("cpm_almost_verify_budget_exhausted_total"),
      obs::metrics().gauge("cpm_almost_membership_entries_peak")};
  return m;
}

// Witness-verification work cap: entries of the per-node clique index a
// single clique may scan, per node it contains. Within the cap the level's
// merges are exactly CPM's; past it the filter's candidates are accepted
// unverified (the "almost" fallback), keeping worst-case work linear in
// the index size instead of the O(C^2) overlap join.
constexpr std::size_t kVerifyBudgetPerNode = 512;

// One level's merges without the overlap join. Per level, each node
// carries the list of cliques (resolving to communities via the union-find)
// it appeared in so far this level; a community sharing >= k-1 distinct
// nodes with a clique is a merge candidate, and candidates are verified
// against the per-node clique index under a work budget before they merge.
// As k decreases the partition only coarsens, so the levels nest.
class FilterVerifyJoin {
 public:
  FilterVerifyJoin(std::size_t num_nodes, AlmostCpmStats& stats)
      : num_nodes_(num_nodes), stats_(stats) {}

  void prepare(const std::vector<NodeSet>& cliques) {
    cliques_ = &cliques;
    const std::size_t num_cliques = cliques.size();
    // Per-node clique index for witness verification; ascending ids, so a
    // scan can stop at the first id >= the clique being processed (later
    // ids are not yet published at this level).
    cliques_of_node_ = build_node_clique_index(cliques, num_nodes_);
    memberships_.assign(num_nodes_, {});
    cand_stamp_.assign(num_cliques, 0);
    node_stamp_.assign(num_cliques, 0);
    cand_count_.assign(num_cliques, 0);
    verify_stamp_.assign(num_cliques, 0);
    verify_count_.assign(num_cliques, 0);
  }

  // `live` is processed in ascending id order, the order the witness scan's
  // early stop relies on.
  void unite_level(std::size_t k, UnionFind& uf,
                   const std::vector<CliqueId>& live) {
    const std::vector<NodeSet>& cliques = *cliques_;
    for (auto& list : memberships_) list.clear();
    std::uint64_t entries_this_level = 0;

    for (CliqueId c : live) {
      const NodeSet& members = cliques[c];
      ++clique_serial_;
      cand_order_.clear();
      for (NodeId v : members) {
        ++node_serial_;
        for (CliqueId entry : memberships_[v]) {
          const std::uint32_t root = uf.find(entry);
          if (node_stamp_[root] == node_serial_) continue;  // node counted
          node_stamp_[root] = node_serial_;
          if (cand_stamp_[root] != clique_serial_) {
            cand_stamp_[root] = clique_serial_;
            cand_count_[root] = 0;
            cand_order_.push_back(root);
          }
          ++cand_count_[root];
          ++stats_.candidate_checks;
        }
      }
      // Every community sharing >= k-1 distinct nodes with c is a merge
      // candidate. The count is against the community's node union, not
      // any single clique of it, so it never misses a true merge but can
      // admit false ones — those are weeded out by exact witness
      // verification below, as long as the work budget holds.
      bool any_candidate = false;
      for (CliqueId root : cand_order_) {
        if (cand_count_[root] + 1 >= k) {
          any_candidate = true;
          break;
        }
      }
      if (any_candidate) {
        // Scan the processed prefix of c's nodes' clique lists, counting
        // shared nodes per individual live clique b; |c ∩ b| >= k-1 is an
        // exact CPM merge. Each live overlapping pair is examined once
        // per level (when its later clique processes), so within budget
        // the level's partition is exactly sweep_cpm's.
        const std::size_t budget = kVerifyBudgetPerNode * members.size();
        std::size_t scanned = 0;
        bool exhausted = false;
        ++verify_serial_;
        for (NodeId v : members) {
          for (CliqueId b : cliques_of_node_[v]) {
            if (b >= c) break;  // ascending: not yet published this level
            if (++scanned > budget) {
              exhausted = true;
              break;
            }
            if (cliques[b].size() < k) continue;  // not live
            if (verify_stamp_[b] != verify_serial_) {
              verify_stamp_[b] = verify_serial_;
              verify_count_[b] = 0;
            }
            if (++verify_count_[b] + 1 >= k && uf.unite(c, b)) {
              ++stats_.unions;
            }
          }
          if (exhausted) break;
        }
        if (exhausted) {
          // Budget gone: fall back to the filter's answer (a coarsening,
          // never a split — this is the only place exactness is lost).
          ++stats_.verify_budget_exhausted;
          for (CliqueId root : cand_order_) {
            if (cand_count_[root] + 1 >= k && uf.unite(c, root)) {
              ++stats_.unions;
            }
          }
        } else {
          ++stats_.verifications;
          const std::uint32_t verified_root = uf.find(c);
          for (CliqueId root : cand_order_) {
            if (cand_count_[root] + 1 >= k &&
                uf.find(root) != verified_root) {
              ++stats_.filter_rejections;
            }
          }
        }
      }
      // Publish c to its nodes; skip nodes whose latest entry already
      // resolves to c's community (bounds list growth).
      const std::uint32_t root_c = uf.find(c);
      for (NodeId v : members) {
        if (!memberships_[v].empty() &&
            uf.find(memberships_[v].back()) == root_c) {
          continue;
        }
        memberships_[v].push_back(c);
        ++entries_this_level;
      }
    }
    stats_.membership_entries_peak =
        std::max(stats_.membership_entries_peak, entries_this_level);
  }

 private:
  std::size_t num_nodes_;
  AlmostCpmStats& stats_;
  const std::vector<NodeSet>* cliques_ = nullptr;
  std::vector<std::vector<CliqueId>> cliques_of_node_;
  // Per-node membership lists, rebuilt each level; entries are clique ids
  // whose current union-find root identifies the community.
  std::vector<std::vector<CliqueId>> memberships_;
  // Epoch-stamped scratch (indexed by union-find root): distinct-node count
  // per candidate community, plus dedup stamps so each (node, community)
  // pair counts once. No per-clique clearing.
  std::vector<std::uint64_t> cand_stamp_;
  std::vector<std::uint64_t> node_stamp_;
  std::vector<std::uint32_t> cand_count_;
  std::vector<CliqueId> cand_order_;
  std::uint64_t clique_serial_ = 0;
  std::uint64_t node_serial_ = 0;
  // Epoch-stamped per-witness-clique overlap counts for verification.
  std::vector<std::uint64_t> verify_stamp_;
  std::vector<std::uint32_t> verify_count_;
  std::uint64_t verify_serial_ = 0;
};

}  // namespace

AlmostCpmResult run_almost_cpm_on_cliques(const Graph& g,
                                          std::vector<NodeSet> cliques,
                                          const CpmOptions& options,
                                          bool build_tree) {
  AlmostCpmResult out;
  FilterVerifyJoin filter(g.num_nodes(), out.stats);
  cpm_detail::LevelJoin join;
  join.prepare = [&](const std::vector<NodeSet>& table, std::size_t) {
    filter.prepare(table);
  };
  join.unite_level = [&](std::size_t k, UnionFind& uf,
                         const std::vector<CliqueId>& live) {
    filter.unite_level(k, uf, live);
  };
  cpm_detail::LevelSweep levels =
      cpm_detail::descend_levels(g.num_nodes(), std::move(cliques), options,
                                 "run_almost_cpm_on_cliques", "almost_cpm",
                                 join, build_tree);
  out.cpm = std::move(levels.cpm);
  out.tree = std::move(levels.tree);
  KCC_LOG(kDebug) << "run_almost_cpm_on_cliques: " << out.cpm.cliques.size()
                  << " cliques, " << out.stats.candidate_checks
                  << " candidate checks, " << out.stats.unions << " unions, "
                  << out.stats.verifications << " verified, "
                  << out.stats.filter_rejections << " rejected, "
                  << out.stats.verify_budget_exhausted
                  << " budget-exhausted, membership peak "
                  << out.stats.membership_entries_peak;

  AlmostMetrics& m = almost_metrics();
  m.candidate_checks.inc(out.stats.candidate_checks);
  m.unions.inc(out.stats.unions);
  m.verifications.inc(out.stats.verifications);
  m.filter_rejections.inc(out.stats.filter_rejections);
  m.verify_budget_exhausted.inc(out.stats.verify_budget_exhausted);
  m.membership_peak.set(
      static_cast<std::int64_t>(out.stats.membership_entries_peak));
  return out;
}

}  // namespace kcc
