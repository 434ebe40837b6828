// Internal: the shared enumeration core behind clique::Enumerator. The
// sequential (bron_kerbosch.cpp) and parallel (parallel_cliques.cpp)
// drivers both funnel through enumerate_vertex_subproblem, which
// dispatches each degeneracy-ordered vertex subproblem to the bitset or
// sparse kernel. Not part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "clique/enumerator.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "graph/bit_graph.h"
#include "graph/degeneracy.h"
#include "graph/graph.h"

namespace kcc::clique::detail {

/// Everything one enumeration shares across subproblems. Built by the
/// Enumerator entry points; plain references, so it is cheap to copy into
/// pool jobs.
struct EnumContext {
  const Graph& g;
  const DegeneracyResult& deg;
  /// Non-null selects the bitset kernel (with sparse fallback for hub
  /// subproblems); null runs the sparse merge kernel throughout.
  const BitGraph* bits = nullptr;
  std::size_t min_size = 1;
  /// Subproblems whose candidate universe exceeds this run the sparse
  /// kernel even when `bits` is set (meaningless when it is null).
  std::size_t bitset_max_universe = 0;
};

/// Worker-local tally of the clique metrics. Emitting bumps plain integers
/// here; the destructor flushes them into the global obs registry in a
/// handful of atomic adds, instead of paying per-clique atomics (and a
/// histogram bucket search) on the enumeration hot path.
struct LocalCliqueMetrics {
  static constexpr std::size_t kMaxTracked = 64;
  std::uint64_t subproblems = 0;
  std::uint64_t size_count[kMaxTracked] = {};  // cliques of size i
  ~LocalCliqueMetrics() { flush(); }
  void flush();  // defined next to the registry handles in bron_kerbosch.cpp
};

/// Reusable per-worker buffers. One scratch serves any number of
/// subproblems in sequence; it grows to the largest universe seen.
struct SubproblemScratch {
  BitGraph::Scratch bits;
  NodeSet r;     // growing clique of the active recursion (unsorted)
  NodeSet emit;  // sorted copy handed to the sink
  NodeSet p, x;  // sparse-kernel candidate/excluded seeds
  LocalCliqueMetrics metrics;
};

/// Enumerates all maximal cliques whose earliest node in the degeneracy
/// ordering is ctx.deg.order[pos]. Every maximal clique of the graph is
/// produced by exactly one vertex subproblem, so subproblems can run
/// independently; within one subproblem, cliques are reported sorted, in an
/// order that is identical for both kernels (see graph/bit_graph.h).
void enumerate_vertex_subproblem(const EnumContext& ctx, std::size_t pos,
                                 SubproblemScratch& scratch,
                                 const CliqueSinkRef& sink);

/// Runs every subproblem on the calling thread, in degeneracy order.
void enumerate_sequential(const EnumContext& ctx, const CliqueSinkRef& sink);

/// Parallel collection: subproblems are claimed dynamically over `pool` and
/// per-position batches merged in degeneracy-position order.
std::vector<NodeSet> collect_parallel(const EnumContext& ctx,
                                      ThreadPool& pool);

}  // namespace kcc::clique::detail
