// Clique Percolation Method over maximal cliques — the library core.
//
// Soundness of the maximal-clique reduction (standard CFinder result, used
// implicitly by the paper's Lightweight Parallel CPM):
//  * every k-clique lies inside some maximal clique of size >= k, and all
//    k-cliques inside one maximal clique are mutually reachable through
//    adjacent k-cliques (walk by swapping one node at a time);
//  * if two maximal cliques A, B (sizes >= k) share >= k-1 nodes, a k-clique
//    of A and a k-clique of B built on k-1 shared nodes are adjacent;
//  * conversely two adjacent k-cliques give maximal cliques sharing >= k-1
//    nodes.
// Hence the k-clique communities are exactly the unions of connected
// components of the "share >= k-1 nodes" relation over maximal cliques of
// size >= k — which run_cpm computes with a union-find over the shared
// clique-overlap index (see clique_index.h).
//
// Parallel structure (after [11], "Lightweight Parallel CPM"): maximal
// cliques are enumerated in parallel, the overlap pairs are computed once
// by the one per-clique join, and the per-k percolations — which are
// mutually independent — run in parallel across k.
//
// The free functions below are the per-k engine (registry name per_k),
// whose independent per-k loop is the oracle the other exact engines are
// tested against. Other callers should go through the cpm::Engine facade
// (cpm/engine.h), whose default sweep engine produces the same communities
// for all k plus the nesting tree in a single pass.
#pragma once

#include <cstddef>
#include <vector>

#include "cpm/community.h"
#include "graph/graph.h"

namespace kcc {

struct CpmOptions {
  /// Smallest community order to extract. Must be >= 2. k = 2 communities
  /// are the components of the clique table's nodes, which for a full
  /// maximal-clique table are the graph's connected components with >= 2
  /// nodes.
  std::size_t min_k = 2;

  /// Largest community order; 0 means "up to the maximum clique size".
  /// Values beyond the maximum clique size are clamped.
  std::size_t max_k = 0;

  /// Worker threads; 0 means hardware concurrency, 1 forces a fully
  /// sequential run.
  std::size_t threads = 0;
};

/// Extracts all k-clique communities of `g` for k in [min_k, max_k].
CpmResult run_cpm(const Graph& g, const CpmOptions& options = {});

/// Same, over a pre-enumerated maximal-clique set (each clique sorted, size
/// >= 2, nodes < g.num_nodes()). Only `g.num_nodes()` is read: every
/// level, k = 2 included, comes from the clique table.
CpmResult run_cpm_on_cliques(const Graph& g, std::vector<NodeSet> cliques,
                             const CpmOptions& options = {});

}  // namespace kcc
