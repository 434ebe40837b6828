// Weighted Clique Percolation (CPMw, Farkas/Palla et al. 2007) — a library
// extension beyond the paper.
//
// In CPMw a k-clique participates in percolation only when its *intensity*
// — the geometric mean of its edge weights — reaches a threshold I. Raising
// I prunes weak cliques and splits communities along weak seams; I = 0
// recovers the unweighted communities. For the AS topology we pair this
// with weights_from_ixps (peering strength), which lets the analysis
// isolate IXP-backed community cores.
//
// Unlike the unweighted engine (cpm.h), intensity filtering is not
// expressible over maximal cliques alone, so this implementation enumerates
// the individual k-cliques for one k at a time. It is exponential in dense
// zones; intended for moderate k on library-scale graphs.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "graph/weighted_graph.h"

namespace kcc {

/// Geometric mean of the pairwise edge weights of clique `nodes` (sorted,
/// size >= 2; every pair must be an edge of g).
double clique_intensity(const Graph& g, const EdgeWeights& weights,
                        const NodeSet& nodes);

struct WeightedCpmOptions {
  std::size_t k = 4;
  double intensity_threshold = 0.0;  // keep cliques with intensity >= this
  /// Safety valve: abort (throw kcc::Error) when more than this many
  /// k-cliques would be enumerated. 0 disables the check.
  std::size_t max_cliques = 5'000'000;
};

/// Communities of order k among k-cliques with intensity >= threshold.
/// Returned as sorted node sets in lexicographic order.
std::vector<NodeSet> weighted_k_clique_communities(
    const Graph& g, const EdgeWeights& weights,
    const WeightedCpmOptions& options);

/// Sweep helper: community count and largest community size per threshold.
/// Each point keeps exactly the k-cliques weighted_k_clique_communities
/// keeps at that threshold (k >= 2).
struct IntensitySweepPoint {
  double threshold = 0.0;
  std::size_t surviving_cliques = 0;
  std::size_t community_count = 0;
  std::size_t largest_community = 0;
};

std::vector<IntensitySweepPoint> intensity_sweep(
    const Graph& g, const EdgeWeights& weights, std::size_t k,
    const std::vector<double>& thresholds);

}  // namespace kcc
