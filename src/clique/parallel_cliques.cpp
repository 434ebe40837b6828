// Parallel maximal-clique enumeration (Enumerator::collect with a pool).
//
// Each degeneracy-ordered vertex subproblem is independent (see
// bron_kerbosch_internal.h), so subproblems are distributed over a thread
// pool and per-task results merged in ordering position — the output is
// identical to the sequential enumerator regardless of thread count. This
// mirrors the first stage of the paper's Lightweight Parallel CPM, which
// needed 93 hours on 48 cores for the April-2010 topology.
#include <vector>

#include "clique/bron_kerbosch_internal.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace kcc {
namespace clique::detail {

std::vector<NodeSet> collect_parallel(const EnumContext& ctx,
                                      ThreadPool& pool) {
  KCC_SPAN("clique/parallel_enumerate");
  const std::size_t n = ctx.g.num_nodes();
  // One batch per ordering position; tasks never share slots, so no locking
  // is needed and the merge order is scheduling-independent. Subproblems are
  // claimed dynamically because their costs are wildly uneven (a hub's
  // subtree can outweigh thousands of stubs).
  std::vector<CliqueBatch> slots(n);
  std::vector<SubproblemScratch> scratch(
      std::max<std::size_t>(pool.thread_count(), 1));

  parallel_for_dynamic(
      pool, n, /*grain=*/16,
      [&](std::size_t worker, std::size_t begin, std::size_t end) {
        SubproblemScratch& s = scratch[worker];
        for (std::size_t pos = begin; pos < end; ++pos) {
          CliqueBatch& slot = slots[pos];
          auto into_slot = [&slot](std::span<const NodeId> clique) {
            slot.add(clique);
          };
          const CliqueSinkRef sink(into_slot);
          enumerate_vertex_subproblem(ctx, pos, s, sink);
        }
      });

  std::size_t total = 0;
  for (const CliqueBatch& slot : slots) total += slot.size();
  std::vector<NodeSet> out;
  out.reserve(total);
  {
    KCC_SPAN("clique/merge_slots");
    for (const CliqueBatch& slot : slots) {
      slot.for_each([&](std::span<const NodeId> clique) {
        out.emplace_back(clique.begin(), clique.end());
      });
    }
  }
  KCC_LOG(kDebug) << "collect_parallel: " << out.size()
                  << " cliques from " << n << " subproblems on "
                  << pool.thread_count() << " threads";
  return out;
}

}  // namespace clique::detail
}  // namespace kcc
