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
// cliques are enumerated in parallel, the overlap index is computed in
// parallel over cliques, and the per-k percolations — which are mutually
// independent — run in parallel across k.
//
// Compatibility note: the free functions below are the per-k engine, kept
// verbatim as the reference oracle. New code should go through the
// cpm::Engine facade (cpm/engine.h), whose default sweep engine produces
// the same communities for all k plus the nesting tree in a single pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cpm/community.h"
#include "graph/graph.h"

namespace kcc {

struct CpmOptions {
  /// Smallest community order to extract. Must be >= 2. k = 2 communities
  /// are the connected components (with >= 2 nodes) of the graph.
  std::size_t min_k = 2;

  /// Largest community order; 0 means "up to the maximum clique size".
  /// Values beyond the maximum clique size are clamped.
  std::size_t max_k = 0;

  /// Worker threads; 0 means hardware concurrency, 1 forces a fully
  /// sequential run.
  std::size_t threads = 0;

  /// Sweep engine only (sweep_cpm.h): cap on resident overlap-pair bytes;
  /// 0 means unlimited. Non-zero budgets below sweep_min_memory_budget()
  /// are rejected. The per-k engine ignores it.
  std::uint64_t memory_budget = 0;

  /// Sweep engine only: directory for spill files (empty = the system temp
  /// directory). A per-run subdirectory is created on the first spill and
  /// removed when the run finishes.
  std::string spill_dir;
};

/// Extracts all k-clique communities of `g` for k in [min_k, max_k].
CpmResult run_cpm(const Graph& g, const CpmOptions& options = {});

/// Same, over a pre-enumerated maximal-clique set (each clique sorted, size
/// >= 2, defined over a graph with `num_nodes` nodes). `g` is still needed
/// for the k = 2 special case (connected components).
CpmResult run_cpm_on_cliques(const Graph& g, std::vector<NodeSet> cliques,
                             const CpmOptions& options = {});

}  // namespace kcc
