// clique::Enumerator — the one front door to maximal-clique enumeration.
//
// Historically the clique layer reported cliques through a type-erased
// std::function visitor — one heap allocation to build and an indirect,
// non-inlinable call per clique. The Enumerator facade replaces that with:
//
//  * a CliqueSink concept: any callable taking std::span<const NodeId>.
//    The templated entry points erase the sink into a CliqueSinkRef (a raw
//    context + function-pointer pair — no allocation, trivially copyable)
//    exactly once per enumeration, and the hot kernels emit through it;
//  * batch emission: the parallel driver buffers cliques in flat
//    CliqueBatch arenas (one node array + offsets per degeneracy slot)
//    instead of one heap NodeSet per clique;
//  * a backend knob: the same degeneracy-ordered Bron–Kerbosch/Tomita
//    recursion runs either over sorted-id merge intersections (`sparse`,
//    the historical kernel) or over the word-parallel BitGraph row blocks
//    (`bitset`, with popcount pivot scoring and a sparse fallback for hub
//    subproblems whose universe exceeds Options::bitset_max_universe).
//    `auto` resolves per graph. All backends visit the same cliques in the
//    same deterministic order, for any thread count —
//    cpm::canonical_digest is backend-independent, and check::differential
//    crosses backends to prove it on every graph family.
//
// maximal_cliques remains as a one-line sequential convenience over it;
// new code should construct an Enumerator:
//
//   clique::Options o;
//   o.min_size = 2;
//   o.backend = clique::Backend::kBitset;
//   clique::Enumerator e(g, o);
//   e.for_each([&](std::span<const NodeId> q) { use(q); });   // sequential
//   auto cliques = e.collect(pool);                            // parallel
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "graph/bit_graph.h"
#include "graph/degeneracy.h"
#include "graph/graph.h"

namespace kcc::clique {

/// Which intersection kernel the Bron–Kerbosch recursion runs on.
enum class Backend {
  kAuto,    ///< resolve per graph (bitset unless the graph is near-treelike)
  kSparse,  ///< sorted-id merge intersections (the historical kernel)
  kBitset,  ///< word-parallel BitGraph row blocks + popcount pivoting
};

const char* backend_name(Backend backend);

/// Parses "auto" | "sparse" | "bitset"; throws kcc::Error otherwise.
Backend parse_backend(const std::string& name);

/// Anything that can consume one maximal clique. The span is sorted
/// ascending and only valid for the duration of the call; copy to keep.
template <typename S>
concept CliqueSink = std::invocable<S&, std::span<const NodeId>>;

/// Non-owning type-erased view of a CliqueSink: a context pointer plus a
/// function pointer. Built once per enumeration at the templated API
/// boundary, so the compiled kernels pay one indirect call per clique and
/// zero allocations — unlike a std::function visitor.
class CliqueSinkRef {
 public:
  template <typename S>
    requires CliqueSink<S>
  explicit CliqueSinkRef(S& sink)
      : ctx_(&sink), fn_([](void* ctx, std::span<const NodeId> clique) {
          (*static_cast<S*>(ctx))(clique);
        }) {}

  void operator()(std::span<const NodeId> clique) const { fn_(ctx_, clique); }

 private:
  void* ctx_;
  void (*fn_)(void*, std::span<const NodeId>);
};

/// Flat clique buffer: one contiguous node array plus offsets. The parallel
/// driver fills one batch per degeneracy slot (two vector appends per
/// clique instead of a heap NodeSet each) and replays them in
/// deterministic slot order.
class CliqueBatch {
 public:
  void add(std::span<const NodeId> clique) {
    nodes_.insert(nodes_.end(), clique.begin(), clique.end());
    offsets_.push_back(static_cast<std::uint64_t>(nodes_.size()));
  }

  std::size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  std::span<const NodeId> operator[](std::size_t i) const {
    return {nodes_.data() + offsets_[i],
            nodes_.data() + offsets_[i + 1]};
  }

  template <CliqueSink S>
  void for_each(S&& sink) const {
    for (std::size_t i = 0; i < size(); ++i) sink((*this)[i]);
  }

  void clear() {
    nodes_.clear();
    offsets_.assign(1, 0);
  }

 private:
  std::vector<NodeId> nodes_;
  std::vector<std::uint64_t> offsets_{0};
};

struct Options {
  /// Cliques smaller than this are not reported (>= 1). Isolated nodes are
  /// size-1 maximal cliques.
  std::size_t min_size = 1;

  Backend backend = Backend::kAuto;

  /// Hub fallback: a subproblem whose candidate universe (the outer
  /// vertex's degree) exceeds this many nodes runs the sparse merge kernel
  /// instead of building quadratic bit rows, bounding per-worker scratch to
  /// ~max_universe^2/8 bytes. 0 picks the default (2048, i.e. <= 512 KiB of
  /// row blocks). Only meaningful for the bitset backend.
  std::size_t bitset_max_universe = 0;
};

class Enumerator {
 public:
  /// Computes the degeneracy ordering and (for the bitset backend) the
  /// BitGraph once; every entry point below reuses them. Holds a reference
  /// to `g`.
  explicit Enumerator(const Graph& g, Options options = {});
  ~Enumerator();

  Enumerator(const Enumerator&) = delete;
  Enumerator& operator=(const Enumerator&) = delete;

  /// The resolved backend (never kAuto).
  Backend backend() const { return resolved_; }
  const Options& options() const { return options_; }
  const DegeneracyResult& degeneracy() const { return deg_; }

  /// Sequential enumeration; `sink` sees every maximal clique, sorted, in
  /// the deterministic degeneracy-driven order.
  template <CliqueSink S>
  void for_each(S&& sink) const {
    CliqueSinkRef ref(sink);
    for_each_ref(ref);
  }

  /// Sequential collection into owned NodeSets.
  std::vector<NodeSet> collect() const;

  /// Parallel collection over `pool`: vertex subproblems are claimed
  /// dynamically (work stealing over an atomic cursor, so uneven subtree
  /// costs balance) and per-slot batches merged in degeneracy-position
  /// order — output is identical to collect() for any thread count.
  std::vector<NodeSet> collect(ThreadPool& pool) const;

  /// Type-erased core behind for_each. Usable directly when a CliqueSinkRef
  /// is already at hand.
  void for_each_ref(const CliqueSinkRef& sink) const;

 private:
  const Graph& g_;
  Options options_;
  Backend resolved_;
  DegeneracyResult deg_;
  std::unique_ptr<BitGraph> bits_;  // non-null iff resolved_ == kBitset
};

}  // namespace kcc::clique
