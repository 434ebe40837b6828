#include "cpm/weighted_cpm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.h"
#include "common/set_ops.h"
#include "common/union_find.h"
#include "cpm/clique_index.h"

namespace kcc {

double clique_intensity(const Graph& g, const EdgeWeights& weights,
                        const NodeSet& nodes) {
  require(nodes.size() >= 2, "clique_intensity: need at least two nodes");
  double log_sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      require(g.has_edge(nodes[i], nodes[j]),
              "clique_intensity: nodes do not form a clique");
      log_sum += std::log(weights.weight(nodes[i], nodes[j]));
      ++pairs;
    }
  }
  return std::exp(log_sum / static_cast<double>(pairs));
}

namespace {

// log(I) * C(k,2): a k-clique has intensity >= I exactly when its edge
// log-weight sum reaches this. -inf (keep every clique) when I <= 0.
double log_sum_floor(double threshold, std::size_t k) {
  return threshold > 0.0
             ? std::log(threshold) * (double(k) * double(k - 1) / 2.0)
             : -std::numeric_limits<double>::infinity();
}

// Ordered k-clique enumeration with an intensity accumulator: extend the
// current clique only with larger-id common neighbours, carrying the log
// weight sum so intensity falls out without re-scanning pairs.
struct Enumerator {
  const Graph& g;
  const EdgeWeights& weights;
  std::size_t k;
  double log_threshold_total;  // log_sum_floor(I, k)
  std::size_t max_cliques;
  std::vector<NodeSet> out;
  std::vector<double> log_sums;  // per clique of `out`

  void run() {
    NodeSet current;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      current.assign(1, v);
      NodeSet candidates;
      for (NodeId w : g.neighbors(v)) {
        if (w > v) candidates.push_back(w);
      }
      extend(current, candidates, 0.0);
    }
  }

  void extend(NodeSet& current, const NodeSet& candidates, double log_sum) {
    if (current.size() == k) {
      if (log_sum >= log_threshold_total) {
        require(max_cliques == 0 || out.size() < max_cliques,
                "weighted_k_clique_communities: clique budget exceeded");
        out.push_back(current);
        log_sums.push_back(log_sum);
      }
      return;
    }
    if (current.size() + candidates.size() < k) return;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const NodeId v = candidates[i];
      // Weights of v against the current clique.
      double added = 0.0;
      for (NodeId m : current) added += std::log(weights.weight(m, v));
      NodeSet next;
      for (std::size_t j = i + 1; j < candidates.size(); ++j) {
        if (g.has_edge(v, candidates[j])) next.push_back(candidates[j]);
      }
      current.push_back(v);
      extend(current, next, log_sum + added);
      current.pop_back();
    }
  }
};

// Percolates distinct k-cliques: those sharing k-1 nodes are united over
// the one overlap join, and each group becomes its sorted node union.
std::vector<NodeSet> percolate(const std::vector<NodeSet>& cliques,
                               std::size_t num_nodes, std::size_t k) {
  UnionFind uf(cliques.size());
  for_each_clique_overlaps(cliques, num_nodes, k - 1,
                           [&](std::span<const CliqueOverlap> pairs) {
                             for (const CliqueOverlap& p : pairs) {
                               uf.unite(p.a, p.b);
                             }
                           });
  std::vector<NodeSet> communities;
  for (const auto& group : uf.groups()) {
    NodeSet nodes;
    for (std::uint32_t c : group) {
      nodes.insert(nodes.end(), cliques[c].begin(), cliques[c].end());
    }
    sort_unique(nodes);
    communities.push_back(std::move(nodes));
  }
  return communities;
}

}  // namespace

std::vector<NodeSet> weighted_k_clique_communities(
    const Graph& g, const EdgeWeights& weights,
    const WeightedCpmOptions& options) {
  require(options.k >= 2, "weighted_k_clique_communities: k must be >= 2");
  Enumerator enumerator{
      g, weights, options.k,
      log_sum_floor(options.intensity_threshold, options.k),
      options.max_cliques, {}, {}};
  enumerator.run();
  std::vector<NodeSet> communities =
      percolate(enumerator.out, g.num_nodes(), options.k);
  std::sort(communities.begin(), communities.end());
  return communities;
}

std::vector<IntensitySweepPoint> intensity_sweep(
    const Graph& g, const EdgeWeights& weights, std::size_t k,
    const std::vector<double>& thresholds) {
  // Enumerate once at the lowest threshold, then filter each sweep point by
  // the clique's log-weight sum with weighted_k_clique_communities' own
  // predicate (the enumeration is the expensive part).
  require(k >= 2, "intensity_sweep: k must be >= 2");
  require(!thresholds.empty(), "intensity_sweep: need at least one threshold");
  const double lowest = *std::min_element(thresholds.begin(), thresholds.end());
  Enumerator enumerator{g, weights, k, log_sum_floor(lowest, k),
                        WeightedCpmOptions{}.max_cliques, {}, {}};
  enumerator.run();

  std::vector<IntensitySweepPoint> out;
  for (double threshold : thresholds) {
    IntensitySweepPoint point;
    point.threshold = threshold;
    const double floor = log_sum_floor(threshold, k);
    std::vector<NodeSet> cliques;
    for (std::size_t i = 0; i < enumerator.out.size(); ++i) {
      if (enumerator.log_sums[i] >= floor) {
        cliques.push_back(enumerator.out[i]);
      }
    }
    point.surviving_cliques = cliques.size();
    const std::vector<NodeSet> communities =
        percolate(cliques, g.num_nodes(), k);
    point.community_count = communities.size();
    for (const NodeSet& nodes : communities) {
      point.largest_community = std::max(point.largest_community, nodes.size());
    }
    out.push_back(point);
  }
  return out;
}

}  // namespace kcc
