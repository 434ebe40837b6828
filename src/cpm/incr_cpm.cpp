#include "cpm/incr_cpm.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/set_ops.h"
#include "common/thread_pool.h"
#include "cpm/clique_index.h"
#include "cpm/sweep_cpm.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace kcc::cpm {
namespace {

std::pair<NodeId, NodeId> canon(std::pair<NodeId, NodeId> e) {
  if (e.first > e.second) std::swap(e.first, e.second);
  return e;
}

// The overlap lists link cliques sharing >= 3 nodes: the sweep reads
// level 3 off shared edges and every higher level k off overlap k - 1.
constexpr std::uint32_t kMinLinkOverlap = 3;

std::string describe(std::pair<NodeId, NodeId> e) {
  return "(" + std::to_string(e.first) + ", " + std::to_string(e.second) +
         ")";
}

}  // namespace

IncrementalCpm::IncrementalCpm(const Graph& g, Options options)
    : options_(std::move(options)) {
  require(options_.min_k >= 2, "IncrementalCpm: min_k must be >= 2");
  require(options_.min_clique_size >= 2,
          "IncrementalCpm: min_clique_size must be >= 2");
  require(options_.min_clique_size <= options_.min_k,
          "IncrementalCpm: min_clique_size ", options_.min_clique_size,
          " must be <= min_k ", options_.min_k);
  KCC_SPAN("incr_cpm/bootstrap");
  {
    ThreadPool pool(options_.threads);
    clique::Options copt;
    // The maintained table must hold EVERY maximal clique of size >= 2
    // regardless of options_.min_clique_size (fragments below the floor
    // still shape future updates); the floor filters at materialization.
    copt.min_size = 2;
    copt.backend = options_.clique_backend;
    copt.bitset_max_universe = options_.bitset_max_universe;
    cliques_ = clique::Enumerator(g, copt).collect(pool);
  }
  adjacency_.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    adjacency_[v].assign(nbrs.begin(), nbrs.end());
  }
  num_edges_ = g.num_edges();

  gen_.assign(cliques_.size(), 0);
  cliques_of_node_.assign(adjacency_.size(), {});
  for (CliqueId c = 0; c < cliques_.size(); ++c) {
    for (NodeId x : cliques_[c]) cliques_of_node_[x].push_back({c, 0});
  }
  {
    std::vector<std::uint32_t> lengths(adjacency_.size());
    for (NodeId x = 0; x < adjacency_.size(); ++x) {
      lengths[x] = static_cast<std::uint32_t>(cliques_of_node_[x].size());
    }
    hub_bit_ = choose_hubs(lengths);
  }
  hub_mask_.resize(cliques_.size());
  for (CliqueId c = 0; c < cliques_.size(); ++c) {
    hub_mask_[c] = mask_of(cliques_[c]);
  }
  order_.reserve(cliques_.size());
  for (CliqueId c = 0; c < cliques_.size(); ++c) order_.push_back({c, 0});
  std::sort(order_.begin(), order_.end(), [&](CliqueRef a, CliqueRef b) {
    return cliques_[a.clique] < cliques_[b.clique];
  });
  overlaps_.assign(cliques_.size(), {});
  for_each_clique_overlaps(cliques_, adjacency_.size(), kMinLinkOverlap,
                           [&](std::span<const CliqueOverlap> pairs) {
                             for (const CliqueOverlap& p : pairs) {
                               link(p.a, p.b, p.overlap);
                             }
                           });
  stale_entries_ = 0;
  marks_.assign(cliques_.size(), {});
  node_stamp_.assign(adjacency_.size(), 0);
}

bool IncrementalCpm::adjacent(NodeId u, NodeId v) const {
  if (u >= adjacency_.size() || v >= adjacency_.size()) return false;
  const bool u_smaller = adjacency_[u].size() <= adjacency_[v].size();
  const auto& list = u_smaller ? adjacency_[u] : adjacency_[v];
  const NodeId target = u_smaller ? v : u;
  return std::binary_search(list.begin(), list.end(), target);
}

void IncrementalCpm::validate(const EdgeBatch& batch) const {
  // Removes apply before adds and the two sides must be disjoint, so every
  // condition below can be checked against the pre-batch graph: an edge
  // stays present until its own removal, and an added edge was absent at
  // batch start and stays absent through the removes.
  std::vector<std::pair<NodeId, NodeId>> removes;
  removes.reserve(batch.remove.size());
  for (std::pair<NodeId, NodeId> e : batch.remove) {
    require(e.first != e.second,
            "IncrementalCpm::apply: self-loop in remove (", e.first, ", ",
            e.second, ")");
    e = canon(e);
    require(adjacent(e.first, e.second),
            "IncrementalCpm::apply: remove of absent edge (", e.first, ", ",
            e.second, ")");
    removes.push_back(e);
  }
  std::sort(removes.begin(), removes.end());
  for (std::size_t i = 1; i < removes.size(); ++i) {
    require(removes[i] != removes[i - 1],
            "IncrementalCpm::apply: edge (", removes[i].first, ", ",
            removes[i].second, ") listed twice in remove");
  }
  std::vector<std::pair<NodeId, NodeId>> adds;
  adds.reserve(batch.add.size());
  for (std::pair<NodeId, NodeId> e : batch.add) {
    require(e.first != e.second,
            "IncrementalCpm::apply: self-loop in add (", e.first, ", ",
            e.second, ")");
    e = canon(e);
    // The per-node arrays grow to the largest id + 1, which the largest
    // NodeId cannot have.
    require(e.second < std::numeric_limits<NodeId>::max(),
            "IncrementalCpm::apply: node id out of range in add (", e.first,
            ", ", e.second, "); ids must be below ",
            std::numeric_limits<NodeId>::max());
    require(!adjacent(e.first, e.second),
            "IncrementalCpm::apply: add of already-present edge (", e.first,
            ", ", e.second, ")");
    adds.push_back(e);
  }
  std::sort(adds.begin(), adds.end());
  for (std::size_t i = 1; i < adds.size(); ++i) {
    require(adds[i] != adds[i - 1],
            "IncrementalCpm::apply: edge (", adds[i].first, ", ",
            adds[i].second, ") listed twice in add");
  }
  std::vector<std::pair<NodeId, NodeId>> both;
  std::set_intersection(adds.begin(), adds.end(), removes.begin(),
                        removes.end(), std::back_inserter(both));
  if (!both.empty()) {
    throw Error("IncrementalCpm::apply: edge " + describe(both[0]) +
                " appears in both add and remove");
  }
}

void IncrementalCpm::apply(const EdgeBatch& batch) {
  validate(batch);
  KCC_SPAN("incr_cpm/apply");
  const std::uint64_t created_before = cliques_created_;
  const std::uint64_t retired_before = cliques_retired_;
  for (const std::pair<NodeId, NodeId>& e : batch.remove) {
    const auto [u, v] = canon(e);
    remove_edge(u, v);
  }
  for (const std::pair<NodeId, NodeId>& e : batch.add) {
    const auto [u, v] = canon(e);
    add_edge(u, v);
  }
  merge_newborns();
  compact_if_needed();
  ++batches_applied_;
  obs::metrics().counter("cpm_incr_batches_total").inc(1);
  obs::metrics()
      .counter("cpm_incr_edges_removed_total")
      .inc(batch.remove.size());
  obs::metrics().counter("cpm_incr_edges_added_total").inc(batch.add.size());
  obs::metrics()
      .counter("cpm_incr_cliques_created_total")
      .inc(cliques_created_ - created_before);
  obs::metrics()
      .counter("cpm_incr_cliques_retired_total")
      .inc(cliques_retired_ - retired_before);
}

void IncrementalCpm::add_edge(NodeId u, NodeId v) {
  const NodeId hi = std::max(u, v);
  if (hi >= adjacency_.size()) {
    adjacency_.resize(hi + 1);
    cliques_of_node_.resize(hi + 1);
    hub_bit_.resize(hi + 1, kNoHub);
    node_stamp_.resize(hi + 1, 0);
  }
  auto insert_sorted = [](std::vector<NodeId>& list, NodeId x) {
    list.insert(std::lower_bound(list.begin(), list.end(), x), x);
  };
  insert_sorted(adjacency_[u], v);
  insert_sorted(adjacency_[v], u);
  ++num_edges_;

  // Old cliques absorbed by the new edge: Q ∋ side with every other member
  // already adjacent to `other` — Q ∪ {other} is now a clique, so Q lost
  // maximality. (No old clique contains both endpoints.)
  std::vector<CliqueId> dying;
  auto collect_absorbed = [&](NodeId side, NodeId other) {
    // Stamp N(other) once so the per-member adjacency test is O(1).
    ++node_epoch_;
    for (NodeId w : adjacency_[other]) node_stamp_[w] = node_epoch_;
    auto& list = cliques_of_node_[side];
    std::size_t live = 0;
    for (const CliqueRef e : list) {
      if (!valid(e)) continue;  // stale: compacted away in place
      list[live++] = e;
      const CliqueId c = e.clique;
      bool absorbed = true;
      for (NodeId w : cliques_[c]) {
        if (w != side && node_stamp_[w] != node_epoch_) {
          absorbed = false;
          break;
        }
      }
      if (absorbed) dying.push_back(c);
    }
    list.resize(live);
  };
  collect_absorbed(u, v);
  collect_absorbed(v, u);
  for (CliqueId c : dying) retire_clique(c);

  // New maximal cliques all contain both endpoints: {u, v} ∪ S for each
  // maximal clique S of the common-neighborhood subgraph (any witness of
  // {u, v} ∪ S is a common neighbor adjacent to all of S, contradicting S's
  // maximality there).
  std::vector<NodeId> common;
  std::set_intersection(adjacency_[u].begin(), adjacency_[u].end(),
                        adjacency_[v].begin(), adjacency_[v].end(),
                        std::back_inserter(common));
  if (common.empty()) {
    insert_clique(NodeSet{std::min(u, v), std::max(u, v)});
    return;
  }
  std::vector<std::pair<NodeId, NodeId>> sub_edges;
  for (std::size_t i = 0; i < common.size(); ++i) {
    for (std::size_t j = i + 1; j < common.size(); ++j) {
      if (adjacent(common[i], common[j])) {
        sub_edges.push_back({static_cast<NodeId>(i), static_cast<NodeId>(j)});
      }
    }
  }
  const Graph sub = Graph::from_edges(common.size(), sub_edges);
  clique::Options copt;
  copt.min_size = 1;  // an isolated common neighbor extends {u, v} alone
  copt.backend = options_.clique_backend;
  copt.bitset_max_universe = options_.bitset_max_universe;
  for (const NodeSet& local : clique::Enumerator(sub, copt).collect()) {
    NodeSet k;
    k.reserve(local.size() + 2);
    for (NodeId i : local) k.push_back(common[i]);
    k.push_back(u);
    k.push_back(v);
    std::sort(k.begin(), k.end());
    insert_clique(std::move(k));
  }
}

void IncrementalCpm::remove_edge(NodeId u, NodeId v) {
  auto erase_sorted = [](std::vector<NodeId>& list, NodeId x) {
    list.erase(std::lower_bound(list.begin(), list.end(), x));
  };
  erase_sorted(adjacency_[u], v);
  erase_sorted(adjacency_[v], u);
  --num_edges_;

  // Exactly the cliques containing both endpoints die; their fragments
  // Q \ {u}, Q \ {v} are the only candidate new maximal cliques, pairwise
  // incomparable and distinct from every surviving clique.
  // Both endpoints' clique lists hold every dying clique; scan the shorter,
  // u's. This removal's marks hold bit 0 for holding u, bit 1 for holding
  // v and, above them, a dying clique's index into `dying`.
  if (cliques_of_node_[u].size() > cliques_of_node_[v].size()) std::swap(u, v);
  next_epoch();
  const auto mark = [&](CliqueId c, std::uint32_t bits) {
    if (marks_[c].epoch != epoch_) marks_[c] = {epoch_, 0};
    marks_[c].value |= bits;
  };
  // Which endpoints clique c holds, as mark bits: a hub endpoint is read
  // off the hub mask, a non-hub one off its stamped clique list (v's is
  // stamped once the first relink needs it). 3 marks a dying clique, and
  // stays on a parent's slot after it took a fragment.
  const auto hub_of = [&](NodeId x) {
    return hub_bit_[x] == kNoHub ? std::uint64_t{0}
                                 : std::uint64_t{1} << hub_bit_[x];
  };
  const std::uint64_t u_hub = hub_of(u);
  const std::uint64_t v_hub = hub_of(v);
  // A caller that needs neither a non-hub endpoint nor the dying marks
  // (one dying clique only) skips the marks.
  const auto held = [&](CliqueId c, bool marks) {
    std::uint32_t bits = ((hub_mask_[c] & u_hub) != 0 ? 1u : 0u) |
                         ((hub_mask_[c] & v_hub) != 0 ? 2u : 0u);
    if (marks && marks_[c].epoch == epoch_) bits |= marks_[c].value & 3;
    return bits;
  };
  std::vector<CliqueId> dying;
  {
    auto& list = cliques_of_node_[u];
    std::size_t live = 0;
    for (const CliqueRef e : list) {
      if (!valid(e)) continue;
      list[live++] = e;
      const CliqueId c = e.clique;
      mark(c, 1);
      if (v_hub != 0 ? (hub_mask_[c] & v_hub) != 0
                     : std::binary_search(cliques_[c].begin(),
                                          cliques_[c].end(), v)) {
        marks_[c].value |= 2 | static_cast<std::uint32_t>(dying.size()) << 2;
        dying.push_back(c);
      }
    }
    list.resize(live);
  }
  bool v_marked = v_hub != 0;
  const bool many = dying.size() > 1;

  // Parent by parent: settle which fragments are maximal, then relink. A
  // parent keeps in its slot the fragment dropping u, whose clique list is
  // the shorter, so fewer neighbors hold it and fewer overlaps change; a
  // second fragment, dropping v, takes a new slot. A pair of dying
  // cliques is unlinked by whichever of the two comes first (a relink
  // records its overlap for the fragment pairs below); kept slots stay
  // marked dying for the rest of the removal.
  struct Between {
    std::uint32_t i, j, overlap;  // dying indexes, |Q_i ∩ Q_j| >= 3
  };
  std::vector<Between> between;
  constexpr CliqueId kNone = std::numeric_limits<CliqueId>::max();
  // The fragments' slots per parent: [0] drops u, [1] drops v.
  std::vector<std::array<CliqueId, 2>> fragments(dying.size(),
                                                 {kNone, kNone});
  bool any_pair = false;
  for (std::uint32_t i = 0; i < dying.size(); ++i) {
    const CliqueId q = dying[i];
    const auto size = static_cast<std::uint32_t>(cliques_[q].size());
    // A surviving D with |Q ∩ D| = |Q| - 1 holds exactly one endpoint and
    // contains the fragment that drops the other.
    bool without_u = size >= 4;
    bool without_v = size >= 4;
    for (const OverlapEntry& e : overlaps_[q]) {
      if (e.overlap + 1 != size) continue;
      const std::uint32_t bits = held(e.clique, many || u_hub == 0);
      if (bits == 3) continue;
      (bits == 1 ? without_v : without_u) = false;
      if (!without_u && !without_v) break;
    }
    if (size == 3) {
      std::tie(without_u, without_v) = maximal_fragments(cliques_[q], u, v);
    }
    if (!without_u && !without_v) {
      retire_clique(q);
      continue;
    }
    if (!v_marked) {
      for (const CliqueRef e : cliques_of_node_[v]) {
        if (valid(e)) mark(e.clique, 2);
      }
      v_marked = true;
    }
    const NodeId x = without_u ? u : v;
    const std::uint32_t x_bit = without_u ? 1 : 2;
    const bool second = without_u && without_v;
    const CliqueId g = second ? new_slot() : q;
    auto& list = overlaps_[q];
    if (second) overlaps_[g].reserve(list.size());
    const bool need_marks = many ||
                            (u_hub == 0 && (second || x_bit == 1)) ||
                            (v_hub == 0 && (second || x_bit == 2));
    // Walked from the back, so an unlink moves an entry already seen into
    // place.
    for (auto k = static_cast<std::uint32_t>(list.size()); k-- > 0;) {
      const OverlapEntry e = list[k];
      const std::uint32_t bits = held(e.clique, need_marks);
      if (bits == 3) {
        between.push_back({i, marks_[e.clique].value >> 2, e.overlap});
        unlink_at(q, k);
        continue;
      }
      if (second) {
        const std::uint32_t shared = e.overlap - (bits >> 1);
        if (shared >= kMinLinkOverlap) link(g, e.clique, shared);
      }
      if ((bits & x_bit) == 0) continue;
      if (e.overlap - 1 >= kMinLinkOverlap) {
        --list[k].overlap;
        --overlaps_[e.clique][e.twin].overlap;
      } else {
        unlink_at(q, k);
      }
    }
    if (second) {
      NodeSet nodes = cliques_[q];
      nodes.erase(std::lower_bound(nodes.begin(), nodes.end(), v));
      index_clique(g, std::move(nodes));
      fragments[i][1] = g;
      any_pair = true;
    }
    // The parent's slot takes Q \ {x} under a new generation: its node
    // references and its place in the kept order go stale with Q.
    NodeSet nodes = std::move(cliques_[q]);
    stale_entries_ += nodes.size();
    ++gen_[q];
    ++cliques_retired_;
    nodes.erase(std::lower_bound(nodes.begin(), nodes.end(), x));
    index_clique(q, std::move(nodes));
    fragments[i][x_bit - 1] = q;
  }

  // Pairs among this removal's fragments: Q_i \ {x_i} and Q_j \ {x_j}
  // share |Q_i ∩ Q_j| - |{x_i, x_j}| nodes. Only parents that were linked
  // can give >= 3 (unlinked ones share exactly the two endpoints), and
  // the two fragments of one parent share |Q| - 2.
  const auto link_fragments = [&](std::array<CliqueId, 2> a,
                                  std::array<CliqueId, 2> b,
                                  std::uint32_t parents_shared) {
    for (int da = 0; da < 2; ++da) {
      for (int db = 0; db < 2; ++db) {
        if (a[da] == kNone || b[db] == kNone) continue;
        const std::uint32_t shared = parents_shared - (da == db ? 1 : 2);
        if (shared >= kMinLinkOverlap) link(a[da], b[db], shared);
      }
    }
  };
  for (const Between& p : between) {
    link_fragments(fragments[p.i], fragments[p.j], p.overlap);
  }
  if (any_pair) {
    for (const auto& [drops_u, drops_v] : fragments) {
      if (drops_u == kNone || drops_v == kNone) continue;
      const auto shared =
          static_cast<std::uint32_t>(cliques_[drops_u].size()) - 1;
      if (shared >= kMinLinkOverlap) link(drops_u, drops_v, shared);
    }
  }
}

std::pair<bool, bool> IncrementalCpm::maximal_fragments(const NodeSet& q,
                                                       NodeId u, NodeId v) {
  // Q = {u, v, w}: the edge {v, w} is maximal unless some neighbor of w is
  // adjacent to v too (u itself no longer is); likewise {u, w} with u.
  NodeId w = q[0];
  for (NodeId x : q) {
    if (x != u && x != v) w = x;
  }
  bool without_u = true;
  bool without_v = true;
  for (NodeId y : adjacency_[w]) {
    if (without_u && adjacent(y, v)) without_u = false;
    if (without_v && adjacent(y, u)) without_v = false;
    if (!without_u && !without_v) break;
  }
  return {without_u, without_v};
}

CliqueId IncrementalCpm::new_slot() {
  CliqueId c;
  if (!free_slots_.empty()) {
    c = free_slots_.back();
    free_slots_.pop_back();
  } else {
    c = static_cast<CliqueId>(cliques_.size());
    cliques_.emplace_back();
    gen_.push_back(0);
    overlaps_.emplace_back();
    hub_mask_.push_back(0);
  }
  grow_scratch();
  marks_[c] = {};  // no marks of the current removal on a reused slot
  return c;
}

void IncrementalCpm::link(CliqueId c, CliqueId d, std::uint32_t shared) {
  const auto at_c = static_cast<std::uint32_t>(overlaps_[c].size());
  const auto at_d = static_cast<std::uint32_t>(overlaps_[d].size());
  overlaps_[c].push_back({d, at_d, shared});
  overlaps_[d].push_back({c, at_c, shared});
}

void IncrementalCpm::erase_entry(CliqueId c, std::uint32_t i) {
  auto& list = overlaps_[c];
  if (i + 1 != list.size()) {
    list[i] = list.back();
    overlaps_[list[i].clique][list[i].twin].twin = i;
  }
  list.pop_back();
}

void IncrementalCpm::unlink_at(CliqueId c, std::uint32_t i) {
  const OverlapEntry e = overlaps_[c][i];
  erase_entry(e.clique, e.twin);
  erase_entry(c, i);
}

std::uint64_t IncrementalCpm::mask_of(const NodeSet& nodes) const {
  std::uint64_t mask = 0;
  for (NodeId x : nodes) {
    if (hub_bit_[x] != kNoHub) mask |= std::uint64_t{1} << hub_bit_[x];
  }
  return mask;
}

void IncrementalCpm::index_clique(CliqueId c, NodeSet nodes) {
  for (NodeId x : nodes) cliques_of_node_[x].push_back({c, gen_[c]});
  born_.push_back({c, gen_[c]});
  hub_mask_[c] = mask_of(nodes);
  cliques_[c] = std::move(nodes);
  ++cliques_created_;
}

CliqueId IncrementalCpm::insert_clique(NodeSet nodes) {
  const CliqueId c = new_slot();
  // A clique of size <= 3 shares at most 2 nodes with any other: no links.
  if (nodes.size() <= kMinLinkOverlap) {
    index_clique(c, std::move(nodes));
    return c;
  }
  // Count shared nodes against every alive clique BEFORE indexing the new
  // one, so it never pairs with itself.
  next_epoch();
  std::vector<CliqueId> touched;
  for (NodeId x : nodes) {
    auto& list = cliques_of_node_[x];
    std::size_t live = 0;
    for (const CliqueRef e : list) {
      if (!valid(e)) continue;  // stale: compacted away in place
      list[live++] = e;
      const CliqueId d = e.clique;
      if (marks_[d].epoch != epoch_) {
        marks_[d] = {epoch_, 0};
        touched.push_back(d);
      }
      ++marks_[d].value;
    }
    list.resize(live);
  }
  for (CliqueId d : touched) {
    if (marks_[d].value >= kMinLinkOverlap) link(c, d, marks_[d].value);
  }
  index_clique(c, std::move(nodes));
  return c;
}

void IncrementalCpm::retire_clique(CliqueId c) {
  // The overlap lists are unlinked through the twins, O(own list). The
  // node references stay in place: the generation bump invalidates them
  // all at once, scans skip (and compact) them, and compact_if_needed()
  // bounds their fraction.
  for (const OverlapEntry& e : overlaps_[c]) erase_entry(e.clique, e.twin);
  std::vector<OverlapEntry>().swap(overlaps_[c]);
  stale_entries_ += cliques_[c].size();
  cliques_[c].clear();
  ++gen_[c];
  free_slots_.push_back(c);
  ++cliques_retired_;
}

void IncrementalCpm::merge_newborns() {
  // Every clique retired this batch left a stale ref in one of the two
  // lists; the generation check drops it, also where a newborn reused the
  // slot or the clique was born and retired within the batch.
  const auto stale = [&](CliqueRef e) { return !valid(e); };
  std::erase_if(order_, stale);
  std::erase_if(born_, stale);
  const auto lex = [&](CliqueRef a, CliqueRef b) {
    return cliques_[a.clique] < cliques_[b.clique];
  };
  std::sort(born_.begin(), born_.end(), lex);
  const auto kept = static_cast<std::ptrdiff_t>(order_.size());
  order_.insert(order_.end(), born_.begin(), born_.end());
  std::inplace_merge(order_.begin(), order_.begin() + kept, order_.end(),
                     lex);
  born_.clear();
}

void IncrementalCpm::compact_if_needed() {
  if (stale_entries_ == 0) return;
  std::size_t total = 0;
  for (const auto& list : cliques_of_node_) total += list.size();
  if (stale_entries_ * 2 < total) return;
  for (auto& list : cliques_of_node_) {
    std::erase_if(list, [&](CliqueRef e) { return !valid(e); });
  }
  stale_entries_ = 0;
}

void IncrementalCpm::next_epoch() {
  if (++epoch_ == 0) {
    std::fill(marks_.begin(), marks_.end(), Mark{});
    epoch_ = 1;
  }
}

void IncrementalCpm::grow_scratch() {
  if (marks_.size() < cliques_.size()) marks_.resize(cliques_.size());
}

Graph IncrementalCpm::graph() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_edges_);
  for (NodeId u = 0; u < adjacency_.size(); ++u) {
    for (NodeId v : adjacency_[u]) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return Graph::from_edges(adjacency_.size(), edges);
}

Result IncrementalCpm::result() const {
  KCC_SPAN("incr_cpm/materialize");
  // Copying the table is a `percolate` stage of its own, closed before the
  // sweep tail opens its own: nesting two stages of one name would count
  // this time twice.
  std::optional<obs::StageScope> prepare_stage(std::in_place, "percolate");

  // The table: alive cliques above the clique floor in the kept
  // lexicographic order, the one table order churn can reproduce
  // deterministically (see EngineCaps::canonical_clique_order). id_of maps
  // a slot to its table id, kNotKept for dead and filtered slots.
  constexpr CliqueId kNotKept = std::numeric_limits<CliqueId>::max();
  std::vector<CliqueId> id_of(cliques_.size(), kNotKept);
  std::vector<NodeSet> table;
  table.reserve(order_.size());
  for (const CliqueRef e : order_) {
    const NodeSet& q = cliques_[e.clique];
    if (q.size() < options_.min_clique_size) continue;
    id_of[e.clique] = static_cast<CliqueId>(table.size());
    table.push_back(q);
  }
  // The pairs go from the live overlap lists straight into the sweep's
  // buckets. Slots are walked in ascending order and each symmetric pair
  // is taken once, from its lower slot's list, before any lookup touches
  // the other clique.
  const OverlapSource pairs = [&](std::size_t min_overlap, OverlapSink& sink) {
    for (CliqueId c = 0; c < overlaps_.size(); ++c) {
      const CliqueId a = id_of[c];
      if (a == kNotKept) continue;
      for (const OverlapEntry& e : overlaps_[c]) {
        if (e.clique < c || e.overlap < min_overlap) continue;
        const CliqueId b = id_of[e.clique];
        if (b != kNotKept) sink.add(a, b, e.overlap);
      }
    }
  };

  prepare_stage.reset();
  SweepCpmResult sweep =
      run_sweep_cpm_prejoined(num_nodes(), std::move(table), pairs,
                              options_.cpm_options(), options_.build_tree);
  Result result;
  result.cpm = std::move(sweep.cpm);
  if (options_.build_tree && result.cpm.max_k >= result.cpm.min_k) {
    result.tree = std::move(sweep.tree);
    result.has_tree = true;
  }
  result.engine_name = "incremental";
  result.exactness = Exactness::kExact;
  return result;
}

Result run_incremental_full(const Options& options, const Graph& g) {
  KCC_SPAN("cpm_engine/incremental");
  // The bootstrap/apply stage closes before result(), which records its own
  // percolate stages (preparation, then the sweep tail) and tree stage.
  const IncrementalCpm state = [&] {
    obs::StageScope stage("percolate");
    // Hold back a suffix of edges and apply() them as one batch, so every
    // full run — including each differential-matrix variant — exercises
    // the churn path, not just the bootstrap.
    const std::vector<std::pair<NodeId, NodeId>> edges = g.edges();
    const std::size_t holdback = std::min<std::size_t>(8, edges.size());
    const std::vector<std::pair<NodeId, NodeId>> base(
        edges.begin(), edges.end() - static_cast<std::ptrdiff_t>(holdback));
    IncrementalCpm live(Graph::from_edges(g.num_nodes(), base), options);
    EdgeBatch batch;
    batch.add.assign(edges.end() - static_cast<std::ptrdiff_t>(holdback),
                     edges.end());
    if (!batch.empty()) live.apply(batch);
    return live;
  }();
  return state.result();
}

}  // namespace kcc::cpm
