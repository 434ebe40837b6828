#include "clique/bron_kerbosch.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "clique/bron_kerbosch_internal.h"
#include "clique/enumerator.h"
#include "common/set_ops.h"
#include "graph/degeneracy.h"
#include "obs/metrics.h"

namespace kcc {
namespace clique {
namespace detail {
namespace {

// Enumeration instruments, shared by every driver (all funnel through
// enumerate_vertex_subproblem). The hot path tallies into a worker-local
// LocalCliqueMetrics; these registry handles are touched only on flush.
struct CliqueMetrics {
  obs::Counter& cliques = obs::metrics().counter("cliques_enumerated_total");
  obs::Counter& subproblems = obs::metrics().counter("bk_subproblems_total");
  obs::Histogram& size = obs::metrics().histogram(
      "clique_size_nodes", obs::Histogram::linear_bounds(2.0, 1.0, 29));
};

CliqueMetrics& clique_metrics() {
  static CliqueMetrics m;
  return m;
}

// Shared emission path of both kernels: sort the clique, tally metrics,
// hand the sink a span. The sorted copy lives in per-worker scratch so
// emitting never allocates once the buffer has grown.
class Emitter {
 public:
  Emitter(const CliqueSinkRef& sink, NodeSet& buf, LocalCliqueMetrics& metrics)
      : sink_(sink), buf_(buf), metrics_(metrics) {}

  void operator()(const NodeSet& r) const {
    buf_.assign(r.begin(), r.end());
    std::sort(buf_.begin(), buf_.end());
    if (buf_.size() < LocalCliqueMetrics::kMaxTracked) {
      ++metrics_.size_count[buf_.size()];
    } else {
      // Outsized clique: spill straight to the registry so the local tally
      // stays a fixed-size array.
      clique_metrics().cliques.inc();
      clique_metrics().size.observe(static_cast<double>(buf_.size()));
    }
    sink_(buf_);
  }

 private:
  const CliqueSinkRef& sink_;
  NodeSet& buf_;
  LocalCliqueMetrics& metrics_;
};

// ---------------------------------------------------------------------------
// Word-mask helpers for the bitset kernel.

std::size_t popcount_words(const std::uint64_t* a, std::size_t words) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < words; ++i) n += std::popcount(a[i]);
  return n;
}

std::size_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < words; ++i) n += std::popcount(a[i] & b[i]);
  return n;
}

bool all_zero(const std::uint64_t* a, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

// Calls fn(local_index) for every set bit, in ascending index order —
// which is ascending NodeId order, since local indices rank the sorted
// member list (see graph/bit_graph.h).
template <typename Fn>
void for_each_bit(const std::uint64_t* a, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = a[w];
    while (word != 0) {
      const std::size_t bit = static_cast<std::size_t>(std::countr_zero(word));
      fn(w * 64 + bit);
      word &= word - 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Bitset kernel: Bron–Kerbosch with Tomita pivoting where P, X and the
// branch set are word masks over the subproblem universe and pivot scoring
// is a row-AND popcount. Each recursion depth owns one stack slot of three
// masks (P, X, branch) inside BitGraph::Scratch — no allocation past the
// top-level prepare().
//
// Traversal parity with the sparse kernel (the canonical_digest invariant):
// candidates are iterated by ascending local index == ascending NodeId, the
// pivot scan walks P then X in that same order with a strictly-greater
// tie-break, and the branch mask is snapshotted before P mutates — all
// exactly mirroring the sorted-vector code below.
class BitExpander {
 public:
  BitExpander(const SubproblemBits& sub, NodeSet& r, const Emitter& emit,
              std::size_t min_size)
      : sub_(sub),
        words_(sub.words),
        base_(sub.p_mask),  // stack slot 0; slot d lives at d * 3 * words
        r_(r),
        emit_(emit),
        min_size_(min_size) {}

  void expand(std::size_t depth) {
    std::uint64_t* p = base_ + depth * 3 * words_;
    std::uint64_t* x = p + words_;
    std::uint64_t* branch = x + words_;

    const std::size_t pc = popcount_words(p, words_);
    if (pc == 0) {
      if (all_zero(x, words_) && r_.size() >= min_size_) emit_(r_);
      return;
    }
    if (r_.size() + pc < min_size_) return;  // cannot reach min_size

    const std::uint64_t* pivot_row = sub_.row(choose_pivot(p, x, pc));
    for (std::size_t i = 0; i < words_; ++i) branch[i] = p[i] & ~pivot_row[i];

    for_each_bit(branch, words_, [&](std::size_t j) {
      const std::uint64_t* row = sub_.row(j);
      std::uint64_t* p2 = base_ + (depth + 1) * 3 * words_;
      std::uint64_t* x2 = p2 + words_;
      for (std::size_t i = 0; i < words_; ++i) {
        p2[i] = p[i] & row[i];
        x2[i] = x[i] & row[i];
      }
      r_.push_back(sub_.members[j]);
      expand(depth + 1);
      r_.pop_back();
      // Move j from P to X.
      p[j / 64] &= ~(1ULL << (j % 64));
      x[j / 64] |= 1ULL << (j % 64);
    });
  }

 private:
  // Tomita pivot: u in P ∪ X maximising |N(u) ∩ P|. First-scanned wins
  // ties (P side before X side, ascending NodeId within each), matching
  // the sparse kernel. A score of pc is a perfect pivot — nothing can
  // strictly beat it, so the scan stops early without changing the choice.
  std::size_t choose_pivot(const std::uint64_t* p, const std::uint64_t* x,
                           std::size_t pc) const {
    std::size_t best = 0;
    std::size_t best_score = 0;
    bool first = true;
    for (const std::uint64_t* side : {p, x}) {
      bool saturated = false;
      for (std::size_t w = 0; w < words_ && !saturated; ++w) {
        std::uint64_t word = side[w];
        while (word != 0) {
          const std::size_t u =
              w * 64 + static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          const std::size_t score = and_popcount(sub_.row(u), p, words_);
          if (first || score > best_score) {
            best = u;
            best_score = score;
            first = false;
            if (best_score == pc) {
              saturated = true;
              break;
            }
          }
        }
      }
      if (saturated) break;
    }
    return best;
  }

  const SubproblemBits& sub_;
  const std::size_t words_;
  std::uint64_t* const base_;
  NodeSet& r_;
  const Emitter& emit_;
  const std::size_t min_size_;
};

// ---------------------------------------------------------------------------
// Sparse kernel: the historical sorted-vector recursion. P and X are sorted
// candidate/excluded sets; R is the growing clique. Retained as the hub
// fallback (universes past bitset_max_universe would need quadratic bit
// rows) and as the `sparse` backend for differential testing.
class Expander {
 public:
  Expander(const Graph& g, NodeSet& r, const Emitter& emit,
           std::size_t min_size)
      : g_(g), r_(r), emit_(emit), min_size_(min_size) {}

  void expand(NodeSet& p, NodeSet& x) {
    if (p.empty() && x.empty()) {
      if (r_.size() >= min_size_) emit_(r_);
      return;
    }
    if (r_.size() + p.size() < min_size_) return;  // cannot reach min_size

    // Tomita pivot: u in P ∪ X maximising |N(u) ∩ P| minimises branching.
    const NodeId pivot = choose_pivot(p, x);
    const auto pivot_adj = g_.neighbors(pivot);
    // Branch on P \ N(pivot). Copy because p mutates during iteration.
    NodeSet branch;
    std::set_difference(p.begin(), p.end(), pivot_adj.begin(), pivot_adj.end(),
                        std::back_inserter(branch));
    for (NodeId v : branch) {
      const auto v_adj = g_.neighbors(v);
      NodeSet p2, x2;
      p2.reserve(std::min(p.size(), v_adj.size()));
      std::set_intersection(p.begin(), p.end(), v_adj.begin(), v_adj.end(),
                            std::back_inserter(p2));
      std::set_intersection(x.begin(), x.end(), v_adj.begin(), v_adj.end(),
                            std::back_inserter(x2));
      r_.push_back(v);
      expand(p2, x2);
      r_.pop_back();
      // Move v from P to X.
      p.erase(std::lower_bound(p.begin(), p.end(), v));
      x.insert(std::lower_bound(x.begin(), x.end(), v), v);
    }
  }

 private:
  NodeId choose_pivot(const NodeSet& p, const NodeSet& x) const {
    NodeId best = p.empty() ? x.front() : p.front();
    std::size_t best_score = 0;
    bool first = true;
    for (const NodeSet* side : {&p, &x}) {
      for (NodeId u : *side) {
        const auto adj = g_.neighbors(u);
        const std::size_t score =
            intersection_size_span(p, adj.data(), adj.size());
        if (first || score > best_score) {
          best = u;
          best_score = score;
          first = false;
        }
      }
    }
    return best;
  }

  static std::size_t intersection_size_span(const NodeSet& a, const NodeId* b,
                                            std::size_t nb) {
    std::size_t n = 0, i = 0, j = 0;
    while (i < a.size() && j < nb) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        ++n;
        ++i;
        ++j;
      }
    }
    return n;
  }

  const Graph& g_;
  NodeSet& r_;
  const Emitter& emit_;
  const std::size_t min_size_;
};

}  // namespace

void LocalCliqueMetrics::flush() {
  CliqueMetrics& m = clique_metrics();
  if (subproblems != 0) m.subproblems.inc(subproblems);
  subproblems = 0;
  std::uint64_t total = 0;
  for (std::size_t size = 0; size < kMaxTracked; ++size) {
    if (size_count[size] == 0) continue;
    m.size.observe_n(static_cast<double>(size), size_count[size]);
    total += size_count[size];
    size_count[size] = 0;
  }
  if (total != 0) m.cliques.inc(total);
}

void enumerate_vertex_subproblem(const EnumContext& ctx, std::size_t pos,
                                 SubproblemScratch& scratch,
                                 const CliqueSinkRef& sink) {
  const NodeId v = ctx.deg.order[pos];
  ++scratch.metrics.subproblems;
  scratch.r.clear();
  scratch.r.push_back(v);
  const Emitter emit(sink, scratch.emit, scratch.metrics);

  const std::span<const NodeId> adj = ctx.g.neighbors(v);
  if (ctx.bits != nullptr && adj.size() <= ctx.bitset_max_universe) {
    const SubproblemBits sub = ctx.bits->prepare(v, scratch.bits);
    if (sub.members.empty()) {
      // Isolated vertex: {v} is a size-1 maximal clique.
      if (scratch.r.size() >= ctx.min_size) emit(scratch.r);
      return;
    }
    BitExpander(sub, scratch.r, emit, ctx.min_size).expand(0);
    return;
  }

  // Sparse path. Split v's neighbourhood by degeneracy position: later
  // nodes become candidates, earlier nodes are excluded (they were outer
  // vertices before). neighbors(v) is ascending, so both halves inherit
  // the sorted invariant without a sort.
  scratch.p.clear();
  scratch.x.clear();
  for (NodeId w : adj) {
    if (ctx.deg.position_of[w] > ctx.deg.position_of[v]) {
      scratch.p.push_back(w);
    } else {
      scratch.x.push_back(w);
    }
  }
  Expander(ctx.g, scratch.r, emit, ctx.min_size).expand(scratch.p, scratch.x);
}

void enumerate_sequential(const EnumContext& ctx, const CliqueSinkRef& sink) {
  SubproblemScratch scratch;
  for (std::size_t pos = 0; pos < ctx.deg.order.size(); ++pos) {
    enumerate_vertex_subproblem(ctx, pos, scratch, sink);
  }
}

}  // namespace detail
}  // namespace clique

// ---------------------------------------------------------------------------
// Conveniences over clique::Enumerator (see bron_kerbosch.h).

std::vector<NodeSet> maximal_cliques(const Graph& g, std::size_t min_size) {
  clique::Options options;
  options.min_size = min_size;
  return clique::Enumerator(g, options).collect();
}

std::size_t maximum_clique_size(const Graph& g) {
  std::size_t best = 0;
  const clique::Enumerator e(g);
  e.for_each([&](std::span<const NodeId> clique) {
    best = std::max(best, clique.size());
  });
  return best;
}

}  // namespace kcc
