#include "cpm/incr_cpm.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/set_ops.h"
#include "common/thread_pool.h"
#include "common/timer.h"
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
  bootstrap(g);
}

IncrementalCpm::IncrementalCpm(FromCliquesTag, const Graph& g,
                               std::vector<NodeSet> cliques, Options options)
    : options_(std::move(options)) {
  require(options_.min_k >= 2, "IncrementalCpm: min_k must be >= 2");
  require(options_.min_clique_size >= 2,
          "IncrementalCpm: min_clique_size must be >= 2");
  cliques_ = std::move(cliques);
  materialize_only_ = options_.min_clique_size > 2;
  bootstrap(g);
}

void IncrementalCpm::bootstrap(const Graph& g) {
  adjacency_.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    adjacency_[v].assign(nbrs.begin(), nbrs.end());
  }
  num_edges_ = g.num_edges();

  alive_.assign(cliques_.size(), 1);
  alive_count_ = cliques_.size();
  gen_.assign(cliques_.size(), 0);
  cliques_of_node_.assign(adjacency_.size(), {});
  for (CliqueId c = 0; c < cliques_.size(); ++c) {
    for (NodeId x : cliques_[c]) cliques_of_node_[x].push_back({c, 0});
  }
  overlaps_.assign(cliques_.size(), {});
  {
    ThreadPool pool(options_.threads);
    for (const CliqueOverlap& p : compute_clique_overlaps_unsorted(
             cliques_, adjacency_.size(), 2, pool)) {
      overlaps_[p.a].push_back({p.b, 0, p.overlap});
      overlaps_[p.b].push_back({p.a, 0, p.overlap});
    }
  }
  stale_entries_ = 0;
  stamp_.assign(cliques_.size(), 0);
  count_.assign(cliques_.size(), 0);
  node_stamp_.assign(adjacency_.size(), 0);
  node_count_.assign(adjacency_.size(), 0);
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
  require(!materialize_only_,
          "IncrementalCpm::apply: state was bootstrapped from a filtered "
          "clique table (min_clique_size > 2); construct from the graph to "
          "apply updates");
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
    node_stamp_.resize(hi + 1, 0);
    node_count_.resize(hi + 1, 0);
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
  // Both endpoints' clique lists hold every dying clique; scan the shorter.
  if (cliques_of_node_[u].size() > cliques_of_node_[v].size()) std::swap(u, v);
  std::vector<CliqueId> dying;
  {
    auto& list = cliques_of_node_[u];
    std::size_t live = 0;
    for (const CliqueRef e : list) {
      if (!valid(e)) continue;
      list[live++] = e;
      const CliqueId c = e.clique;
      if (std::binary_search(cliques_[c].begin(), cliques_[c].end(), v)) {
        dying.push_back(c);
      }
    }
    list.resize(live);
  }
  struct Fragment {
    NodeSet nodes;
    std::size_t parent;  // index into `dying`
    NodeId dropped;
  };
  std::vector<Fragment> fragments;
  for (std::size_t i = 0; i < dying.size(); ++i) {
    const NodeSet& q = cliques_[dying[i]];
    if (q.size() < 3) continue;  // fragments would be singletons
    const auto [keep_without_u, keep_without_v] = maximal_fragments(q, u, v);
    for (NodeId drop : {u, v}) {
      if (!(drop == u ? keep_without_u : keep_without_v)) continue;
      NodeSet f;
      f.reserve(q.size() - 1);
      for (NodeId w : q) {
        if (w != drop) f.push_back(w);
      }
      fragments.push_back({std::move(f), i, drop});
    }
  }
  // A fragment's overlaps follow from its parent's: |(Q \ {x}) ∩ D| is
  // |Q ∩ D| less one when D holds x, so the parent's overlap list (taken
  // before the retire drops it) replaces a scan of every member's clique
  // list. Fragments inserted by this removal are not on it and are
  // intersected directly.
  std::vector<std::vector<OverlapEntry>> parent_overlaps;
  parent_overlaps.reserve(dying.size());
  for (CliqueId c : dying) parent_overlaps.push_back(retire_clique(c));
  std::vector<CliqueId> inserted;
  for (Fragment& f : fragments) {
    const CliqueId c = new_slot();
    const std::vector<OverlapEntry>& parent = parent_overlaps[f.parent];
    // Which neighbors hold x: stamp them from x's clique list when that is
    // the shorter list, else binary-search each neighbor.
    const std::vector<CliqueRef>& holders = cliques_of_node_[f.dropped];
    const bool stamped = holders.size() < parent.size();
    if (stamped) {
      ++epoch_;
      for (const CliqueRef e : holders) {
        if (valid(e)) stamp_[e.clique] = epoch_;
      }
    }
    for (const OverlapEntry& e : parent) {
      if (!valid(e)) continue;  // retired since, dying cliques included
      const bool holds_dropped = stamped
                                     ? stamp_[e.clique] == epoch_
                                     : contains(cliques_[e.clique], f.dropped);
      const std::uint32_t shared = e.overlap - (holds_dropped ? 1 : 0);
      if (shared >= 2) link(c, e.clique, shared);
    }
    for (CliqueId d : inserted) {
      const auto shared =
          static_cast<std::uint32_t>(intersection_size(f.nodes, cliques_[d]));
      if (shared >= 2) link(c, d, shared);
    }
    index_clique(c, std::move(f.nodes));
    inserted.push_back(c);
  }
}

std::pair<bool, bool> IncrementalCpm::maximal_fragments(const NodeSet& q,
                                                       NodeId u, NodeId v) {
  // Q \ {u} is maximal unless some node adjacent to all of R = Q \ {u, v}
  // is adjacent to v too (u itself no longer is); likewise Q \ {v} with u.
  // So one pass counts, for every node adjacent to some member of R, how
  // many members it is adjacent to: reaching |R| makes it a candidate
  // witness for both fragments. A member of R never reaches |R|, as a node
  // is not adjacent to itself.
  const auto target = static_cast<std::uint32_t>(q.size() - 2);
  bool without_u = true;
  bool without_v = true;
  ++node_epoch_;
  for (NodeId x : q) {
    if (x == u || x == v) continue;
    for (NodeId w : adjacency_[x]) {
      if (node_stamp_[w] != node_epoch_) {
        node_stamp_[w] = node_epoch_;
        node_count_[w] = 0;
      }
      if (++node_count_[w] != target) continue;
      if (without_u && adjacent(w, v)) without_u = false;
      if (without_v && adjacent(w, u)) without_v = false;
      if (!without_u && !without_v) return {false, false};
    }
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
    alive_.push_back(0);
    gen_.push_back(0);
    overlaps_.emplace_back();
  }
  grow_scratch();
  return c;
}

void IncrementalCpm::link(CliqueId c, CliqueId d, std::uint32_t shared) {
  overlaps_[c].push_back({d, gen_[d], shared});
  overlaps_[d].push_back({c, gen_[c], shared});
}

void IncrementalCpm::index_clique(CliqueId c, NodeSet nodes) {
  for (NodeId x : nodes) cliques_of_node_[x].push_back({c, gen_[c]});
  cliques_[c] = std::move(nodes);
  alive_[c] = 1;
  ++alive_count_;
  ++cliques_created_;
}

CliqueId IncrementalCpm::insert_clique(NodeSet nodes) {
  const CliqueId c = new_slot();
  // Count shared nodes against every alive clique BEFORE indexing the new
  // one, so it never pairs with itself.
  ++epoch_;
  std::vector<CliqueId> touched;
  for (NodeId x : nodes) {
    auto& list = cliques_of_node_[x];
    std::size_t live = 0;
    for (const CliqueRef e : list) {
      if (!valid(e)) continue;  // stale: compacted away in place
      list[live++] = e;
      const CliqueId d = e.clique;
      if (stamp_[d] != epoch_) {
        stamp_[d] = epoch_;
        count_[d] = 0;
        touched.push_back(d);
      }
      ++count_[d];
    }
    list.resize(live);
  }
  for (CliqueId d : touched) {
    if (count_[d] >= 2) link(c, d, count_[d]);
  }
  index_clique(c, std::move(nodes));
  return c;
}

std::vector<IncrementalCpm::OverlapEntry> IncrementalCpm::retire_clique(
    CliqueId c) {
  // Lazy retire: the back-references this clique holds in its neighbors'
  // overlap lists and in the node index stay physically in place — the
  // generation bump invalidates them all at once. Scans skip (and
  // compact) stale entries; compact_if_needed() bounds the stale
  // fraction. Eager removal here would cost O(sum of neighbor lists) per
  // retire, which is quadratic when a dense-core edge removal retires
  // thousands of mutually-overlapping cliques.
  stale_entries_ += overlaps_[c].size() + cliques_[c].size();
  std::vector<OverlapEntry> overlaps = std::move(overlaps_[c]);
  overlaps_[c].clear();
  cliques_[c].clear();
  ++gen_[c];
  alive_[c] = 0;
  free_slots_.push_back(c);
  --alive_count_;
  ++cliques_retired_;
  return overlaps;
}

void IncrementalCpm::compact_if_needed() {
  if (stale_entries_ == 0) return;
  std::size_t total = 0;
  for (const auto& list : overlaps_) total += list.size();
  for (const auto& list : cliques_of_node_) total += list.size();
  if (stale_entries_ * 2 < total) return;
  for (auto& list : overlaps_) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const OverlapEntry& e) { return !valid(e); }),
               list.end());
  }
  for (auto& list : cliques_of_node_) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](CliqueRef e) { return !valid(e); }),
               list.end());
  }
  stale_entries_ = 0;
}

void IncrementalCpm::grow_scratch() {
  if (stamp_.size() < cliques_.size()) {
    stamp_.resize(cliques_.size(), 0);
    count_.resize(cliques_.size(), 0);
  }
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
  Timer total;
  const Graph g = graph();

  // Alive slots above the clique floor, in lexicographic order — the one
  // table order churn can reproduce deterministically (see
  // EngineCaps::canonical_clique_order).
  std::vector<CliqueId> kept;
  kept.reserve(alive_count_);
  for (CliqueId c = 0; c < cliques_.size(); ++c) {
    if (alive_[c] != 0 && cliques_[c].size() >= options_.min_clique_size) {
      kept.push_back(c);
    }
  }
  std::sort(kept.begin(), kept.end(), [&](CliqueId a, CliqueId b) {
    return cliques_[a] < cliques_[b];
  });
  std::vector<CliqueId> new_id(cliques_.size(), 0);
  std::vector<char> is_kept(cliques_.size(), 0);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    new_id[kept[i]] = static_cast<CliqueId>(i);
    is_kept[kept[i]] = 1;
  }
  std::vector<NodeSet> table;
  table.reserve(kept.size());
  for (CliqueId c : kept) table.push_back(cliques_[c]);

  std::vector<CliqueOverlap> pairs;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (const OverlapEntry& e : overlaps_[kept[i]]) {
      if (!valid(e) || is_kept[e.clique] == 0) continue;
      const CliqueId j = new_id[e.clique];
      if (static_cast<CliqueId>(i) < j) {
        pairs.push_back({static_cast<CliqueId>(i), j, e.overlap});
      }
    }
  }

  SweepCpmResult sweep =
      run_sweep_cpm_prejoined(g, std::move(table), std::move(pairs),
                              options_.cpm_options());
  Result result;
  result.cpm = std::move(sweep.cpm);
  result.timings.percolate_seconds = total.lap();
  if (options_.build_tree && result.cpm.max_k >= result.cpm.min_k) {
    result.tree = std::move(sweep.tree);
    result.has_tree = true;
  }
  result.timings.total_seconds = total.seconds();
  result.engine_name = "incremental";
  result.exactness = Exactness::kExact;
  return result;
}

Result run_incremental_full(const Options& options, const Graph& g) {
  KCC_SPAN("cpm_engine/incremental");
  Timer total;
  Result result;
  {
    obs::StageScope stage("percolate");
    // Hold back a suffix of edges and apply() them as one batch, so every
    // full run — including each differential-matrix variant — exercises
    // the churn path, not just the bootstrap.
    const std::vector<std::pair<NodeId, NodeId>> edges = g.edges();
    const std::size_t holdback = std::min<std::size_t>(8, edges.size());
    const std::vector<std::pair<NodeId, NodeId>> base(
        edges.begin(), edges.end() - static_cast<std::ptrdiff_t>(holdback));
    IncrementalCpm state(Graph::from_edges(g.num_nodes(), base), options);
    EdgeBatch batch;
    batch.add.assign(edges.end() - static_cast<std::ptrdiff_t>(holdback),
                     edges.end());
    if (!batch.empty()) state.apply(batch);
    result = state.result();
  }
  result.timings.percolate_seconds = total.lap();
  result.timings.total_seconds = total.seconds();
  return result;
}

Result run_incremental_on_cliques(const Options& options, const Graph& g,
                                  std::vector<NodeSet> cliques) {
  KCC_SPAN("cpm_engine/incremental");
  Timer total;
  Result result;
  {
    obs::StageScope stage("percolate");
    const IncrementalCpm state(IncrementalCpm::FromCliquesTag{}, g,
                               std::move(cliques), options);
    result = state.result();
  }
  result.timings.percolate_seconds = total.lap();
  result.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace kcc::cpm
