// Maximal-clique enumeration: Bron–Kerbosch with Tomita pivoting over a
// degeneracy ordering (Eppstein–Löffler–Strash).
//
// This is the substrate of the Clique Percolation Method: the paper reports
// 2,730,916 maximal cliques in its AS topology with 88 % of sizes in
// [18:28]; all k-clique communities are derived from the maximal-clique set
// (see cpm/cpm.h for why that is sound).
//
// The enumeration itself lives behind clique::Enumerator
// (clique/enumerator.h), which adds the sparse/bitset backend knob and the
// allocation-free CliqueSink reporting path; the functions below are
// one-line conveniences over it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace kcc {

/// Every maximal clique of `g` with at least `min_size` nodes (isolated
/// nodes are size-1 maximal cliques). Each clique is sorted; the list order
/// is deterministic (it follows the degeneracy ordering).
std::vector<NodeSet> maximal_cliques(const Graph& g, std::size_t min_size = 1);

/// Size of the largest clique in `g` (0 for the empty graph). Runs the
/// enumerator with aggressive size pruning.
std::size_t maximum_clique_size(const Graph& g);

}  // namespace kcc
