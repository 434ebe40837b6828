#include "cpm/incr_cpm.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/thread_pool.h"
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
  order_.reserve(cliques_.size());
  for (CliqueId c = 0; c < cliques_.size(); ++c) order_.push_back({c, 0});
  std::sort(order_.begin(), order_.end(), [&](CliqueRef a, CliqueRef b) {
    return cliques_[a.clique] < cliques_[b.clique];
  });
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

  // Exactly the cliques containing both endpoints die. Both endpoints'
  // clique lists hold every dying clique; scan the shorter.
  const bool u_shorter =
      cliques_of_node_[u].size() <= cliques_of_node_[v].size();
  const NodeId scan = u_shorter ? u : v;
  const NodeId other = u_shorter ? v : u;
  std::vector<CliqueId> dying;
  {
    auto& list = cliques_of_node_[scan];
    std::size_t live = 0;
    for (const CliqueRef e : list) {
      if (!valid(e)) continue;  // stale: compacted away in place
      list[live++] = e;
      const NodeSet& q = cliques_[e.clique];
      if (std::binary_search(q.begin(), q.end(), other)) {
        dying.push_back(e.clique);
      }
    }
    list.resize(live);
  }

  // Every fragment is settled against the table as it stood with the edge,
  // before any slot changes. A dying edge {u, v} leaves only single nodes,
  // which are no clique of the table.
  std::vector<NodeSet> fragments;
  for (const CliqueId q : dying) {
    if (cliques_[q].size() < 3) continue;
    for (const NodeId x : {u, v}) {
      if (!witnessed_without(q, x)) {
        NodeSet nodes = cliques_[q];
        nodes.erase(std::lower_bound(nodes.begin(), nodes.end(), x));
        fragments.push_back(std::move(nodes));
      }
    }
  }
  for (const CliqueId q : dying) retire_clique(q);
  // Fragments are pairwise incomparable and distinct from every surviving
  // clique, so they go in as plain inserts.
  for (NodeSet& nodes : fragments) insert_clique(std::move(nodes));
}

bool IncrementalCpm::witnessed_without(CliqueId q, NodeId x) {
  // F = Q \ {x} is kept unless some clique D != Q of the table holds all
  // of F. Such a D misses x (it would strictly contain Q otherwise), so it
  // survives the removal and strictly contains F in the new graph.
  // Conversely a node w adjacent to all of F once the edge is gone makes
  // F ∪ {w} a clique of the old graph, and its maximal clique is such a D.
  // D holds every member of F, so the shortest member list is scanned.
  const NodeSet& nodes = cliques_[q];
  ++node_epoch_;
  NodeId shortest = x;
  for (const NodeId y : nodes) {
    if (y == x) continue;
    node_stamp_[y] = node_epoch_;
    if (shortest == x ||
        cliques_of_node_[y].size() < cliques_of_node_[shortest].size()) {
      shortest = y;
    }
  }
  const std::size_t members = nodes.size() - 1;
  for (const CliqueRef e : cliques_of_node_[shortest]) {
    if (!valid(e) || e.clique == q) continue;
    const NodeSet& d = cliques_[e.clique];
    if (d.size() <= members) continue;
    std::size_t hits = 0;
    for (const NodeId y : d) hits += node_stamp_[y] == node_epoch_ ? 1 : 0;
    if (hits == members) return true;
  }
  return false;
}

void IncrementalCpm::insert_clique(NodeSet nodes) {
  CliqueId c;
  if (!free_slots_.empty()) {
    c = free_slots_.back();
    free_slots_.pop_back();
  } else {
    c = static_cast<CliqueId>(cliques_.size());
    cliques_.emplace_back();
    gen_.push_back(0);
  }
  for (NodeId x : nodes) cliques_of_node_[x].push_back({c, gen_[c]});
  born_.push_back({c, gen_[c]});
  cliques_[c] = std::move(nodes);
  ++cliques_created_;
}

void IncrementalCpm::retire_clique(CliqueId c) {
  // The node references stay in place: the generation bump invalidates
  // them all at once, scans skip (and compact) them, and
  // compact_if_needed() bounds their fraction.
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
  // deterministically (see EngineCaps::canonical_clique_order).
  std::vector<NodeSet> table;
  table.reserve(order_.size());
  for (const CliqueRef e : order_) {
    const NodeSet& q = cliques_[e.clique];
    if (q.size() >= options_.min_clique_size) table.push_back(q);
  }
  prepare_stage.reset();
  SweepCpmResult sweep =
      run_sweep_cpm_on_cliques(num_nodes(), std::move(table),
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
