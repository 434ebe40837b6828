// Incremental CPM engine — exact clique percolation under edge churn.
//
// The AS-level topology is not static: the serving scenario (ROADMAP item
// 3) needs community results that track edge updates without recomputing
// from scratch. This engine holds live state — the maximal-clique table, a
// per-node clique index and the overlap multiset of the clique pairs that
// share >= 3 nodes — and patches it locally per edge, so a batch touching
// b edges costs work proportional to the affected neighborhoods, not the
// graph. Pairs sharing exactly 2 nodes are not kept: the sweep builds
// level 3 from shared edges of the clique table (sweep_cpm.h), and every
// higher level k reads overlap k - 1 >= 3.
//
// Clique maintenance is exact, by two local theorems:
//
//  * ADD (u, v): a maximal clique of G' = G + uv that is not one of G
//    contains both u and v (adjacency only grows, so any other clique kept
//    or lost its maximality status unchanged), and equals {u, v} ∪ S for S
//    a maximal clique of G'[N'(u) ∩ N'(v)] — found by restricting
//    Bron–Kerbosch (clique::Enumerator, min_size = 1) to the common
//    neighborhood. An old clique Q dies iff it absorbs the new edge: Q ∋ u
//    with Q ⊆ N'(v) ∪ {v}, or symmetrically.
//
//  * REMOVE (u, v): exactly the cliques containing both endpoints die. A
//    maximal clique of G' = G - uv that is not one of G is a fragment
//    Q \ {u} or Q \ {v} of a dying clique Q; a fragment survives iff it
//    still has >= 2 nodes and no witness node adjacent to all its members.
//    Fragments are pairwise incomparable and never collide with a
//    surviving clique (v was adjacent to all of Q \ {v}, contradicting
//    that clique's prior maximality), so insertion needs no dedup.
//
// The overlap multiset is patched with the same locality: inserting a
// clique counts shared nodes against the per-node index (epoch-stamped
// counters), and a removal reads everything it needs off the dying
// parents' own overlap lists (|F ∩ D| >= 3 implies |Q ∩ D| >= 3 for a
// fragment F of Q):
//
//  * maximality — for |Q| >= 4, Q \ {x} is not maximal exactly when Q's
//    list holds a surviving D with |Q ∩ D| = |Q| - 1 that misses x (a D
//    holding both endpoints is dying itself and proves nothing); only
//    |Q| = 3 scans the members' neighborhoods;
//  * fragment pairs — fragments Q_i \ {x_i}, Q_j \ {x_j} of one removal
//    share |Q_i ∩ Q_j| - |{x_i, x_j}| nodes, where |Q_i ∩ Q_j| is on Q_i's
//    list, or 2 when unlisted;
//  * relink — one fragment stays in its parent's slot and only the
//    overlaps with neighbors holding its dropped endpoint change: they are
//    patched in place on both sides, through each entry's twin position
//    (the index of the same pair in the other clique's list). A second
//    fragment takes a fresh slot and links anew.
//
// Overlap lists are kept exact: a retire unlinks its pairs through the
// twins, O(own list). The per-node clique index is lazily invalidated
// instead — a retire bumps the slot's generation and leaves the stale
// references in place; scans skip (and compact away) entries whose
// stamped generation no longer matches, and an amortized global
// compaction bounds the stale fraction. A clique's 64-bit hub mask
// (choose_hubs over the bootstrap's per-node clique counts) answers
// "does D hold endpoint x" for a hub x without touching D's nodes; the
// clique list of a non-hub endpoint is short enough to stamp.
//
// Materialization then re-enters the sweep engine over the maintained
// table + pairs (run_sweep_cpm_prejoined) — the communities, ids, maps and
// tree are produced by literally the same code as a from-scratch sweep, so
// exactness reduces to the clique/overlap maintenance above. It re-derives
// nothing a batch left unchanged: the alive cliques are kept in
// lexicographic order across batches (sorted once at bootstrap; a batch
// sorts only its newborns and merges them in), the overlap lists are the
// sweep's pair source (walked straight into its buckets, no flat pair
// copy), and each level is emitted from the distinct nodes of its
// communities' cliques. The check::churn_differential harness re-proves
// the digest identity against a from-scratch run after every batch of
// every fuzzed schedule.
//
// One serialization caveat: the table is emitted in lexicographic order
// (churn cannot preserve enumeration order), so digest comparisons against
// enumeration-ordered engines go through cpm::canonicalise_clique_order()
// — see EngineCaps::canonical_clique_order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cpm/engine.h"
#include "graph/graph.h"

namespace kcc::cpm {

/// One batch of edge updates. `remove` is applied first, then `add`.
/// Validation is strict and happens against the pre-batch graph before any
/// mutation: self-loops, adding an edge already present, removing one that
/// is absent, a pair listed twice on one side, or the same pair on both
/// sides (a remove-then-re-add round trip is two batches, not one) all
/// throw kcc::Error and leave the state untouched.
struct EdgeBatch {
  std::vector<std::pair<NodeId, NodeId>> add;
  std::vector<std::pair<NodeId, NodeId>> remove;

  bool empty() const { return add.empty() && remove.empty(); }
  std::size_t size() const { return add.size() + remove.size(); }

  /// The batch that undoes this one: adds and removes swapped. Applying a
  /// batch then its inverse restores the original graph (and therefore the
  /// original canonical digest — tested in test_incr_cpm).
  EdgeBatch inverse() const { return EdgeBatch{remove, add}; }
};

/// Live CPM state under edge churn. Construct from a graph (full
/// enumeration bootstrap), mutate with apply(), and snapshot the full
/// all-k Result — digest-identical to a from-scratch sweep on the current
/// graph — with result() whenever needed.
class IncrementalCpm {
 public:
  /// Bootstraps from a full maximal-clique enumeration of `g`. Honors
  /// options.min_k / max_k / min_clique_size / threads / clique_backend /
  /// bitset_max_universe / build_tree; options.engine is ignored (this
  /// state IS the engine). The k range and clique floor only filter
  /// materialization — the maintained table always holds every maximal
  /// clique of size >= 2, which the update theorems require. Throws
  /// kcc::Error naming both values when min_clique_size > min_k (see
  /// Options::min_clique_size).
  explicit IncrementalCpm(const Graph& g, Options options = {});

  /// Applies one edge batch: removes first, then adds, each patching the
  /// clique table, per-node index and overlap multiset locally, then
  /// merges the batch's new cliques into the kept order. Throws
  /// kcc::Error on an invalid batch (see EdgeBatch) with the state
  /// untouched.
  void apply(const EdgeBatch& batch);

  /// Materializes the Result for the current graph by running the sweep
  /// tail (run_sweep_cpm_prejoined) over the maintained clique table, in
  /// the lexicographic order kept across batches (no sort here), with the
  /// overlap lists as its pair source (no flat pair vector) and the node
  /// count as the only thing it reads of the graph: no Graph is rebuilt.
  /// The table copy and the sweep tail are two `percolate` run-report
  /// stages (obs::StageScope); the tree step is the `tree` stage.
  Result result() const;

  /// The current graph, rebuilt from the maintained adjacency (for
  /// oracles that re-run an engine from scratch; result() needs none).
  Graph graph() const;

  const Options& options() const { return options_; }
  std::size_t num_nodes() const { return adjacency_.size(); }
  std::size_t num_edges() const { return num_edges_; }
  /// Maintained maximal cliques of size >= 2 (before the min_clique_size
  /// materialization filter).
  std::size_t num_cliques() const { return order_.size(); }
  std::uint64_t batches_applied() const { return batches_applied_; }

 private:
  void validate(const EdgeBatch& batch) const;
  void add_edge(NodeId u, NodeId v);
  void remove_edge(NodeId u, NodeId v);
  bool adjacent(NodeId u, NodeId v) const;
  /// Whether Q \ {u} and Q \ {v} are maximal once edge (u, v) is gone,
  /// for a clique Q of size 3 that held both endpoints.
  std::pair<bool, bool> maximal_fragments(const NodeSet& q, NodeId u,
                                          NodeId v);
  /// Inserts a new maximal clique, finding its overlaps by scanning the
  /// clique lists of its members.
  CliqueId insert_clique(NodeSet nodes);
  /// Insert steps: a free slot, one symmetric overlap entry, the node index.
  CliqueId new_slot();
  void link(CliqueId c, CliqueId d, std::uint32_t shared);
  void index_clique(CliqueId c, NodeSet nodes);
  std::uint64_t mask_of(const NodeSet& nodes) const;
  void grow_scratch();

  /// A lazily-invalidated reference to clique slot `clique`: valid iff
  /// `gen == gen_[clique]` (a retire bumps the slot generation, so stale
  /// entries — including ones pointing at a since-reused slot — fail the
  /// check without ever being eagerly removed).
  struct CliqueRef {
    CliqueId clique;
    std::uint32_t gen;
  };
  /// One side of a linked pair: overlaps_[c][i] = {d, j, shared} iff
  /// overlaps_[d][j] = {c, i, shared}.
  struct OverlapEntry {
    CliqueId clique;
    std::uint32_t twin;
    std::uint32_t overlap;
  };
  bool valid(CliqueRef e) const { return gen_[e.clique] == e.gen; }
  /// Removes entry i of c's list (not its twin), moving the last entry
  /// into its place and repointing that entry's twin.
  void erase_entry(CliqueId c, std::uint32_t i);
  /// Unlinks the pair at entry i of c's list, both sides.
  void unlink_at(CliqueId c, std::uint32_t i);
  /// Retires clique slot `c`, unlinking all its pairs.
  void retire_clique(CliqueId c);
  /// End of a batch: drops the stale refs from order_ and born_, sorts the
  /// newborns and merges them into order_.
  void merge_newborns();
  /// Rebuilds every node list without its stale entries once the stale
  /// fraction crosses 1/2 (amortized O(1) per staleness created).
  void compact_if_needed();

  Options options_;
  std::vector<std::vector<NodeId>> adjacency_;  // sorted neighbor lists
  std::size_t num_edges_ = 0;

  // Slotted clique table: retired slots go to the free list and are reused
  // by later inserts; order_ lists the alive ones.
  std::vector<NodeSet> cliques_;
  std::vector<CliqueId> free_slots_;
  std::vector<std::uint32_t> gen_;  // bumped per retire; see CliqueRef

  /// The alive cliques in lexicographic order of their node sets: sorted
  /// once at bootstrap and kept across batches by merge_newborns(), so
  /// materialization never sorts the table.
  std::vector<CliqueRef> order_;
  /// Cliques indexed during the current batch, some retired again since.
  std::vector<CliqueRef> born_;

  std::vector<std::vector<CliqueRef>> cliques_of_node_;  // unsorted
  /// overlaps_[c] = (d, twin, |c ∩ d|) for every alive d sharing >= 3
  /// nodes with c; stored symmetrically (each unordered pair appears in
  /// both lists) and never stale.
  std::vector<std::vector<OverlapEntry>> overlaps_;
  /// Hub bit per node (kNoHub for the rest and for nodes added later) and
  /// the hub mask per slot.
  std::vector<std::uint8_t> hub_bit_;
  std::vector<std::uint64_t> hub_mask_;
  /// Upper bound on stale cliques_of_node_ entries, reset by
  /// compact_if_needed().
  std::size_t stale_entries_ = 0;

  // Epoch-stamped scratch values over clique slots, reused across
  // operations so no per-op allocation or clearing is needed: a value
  // counts for the current operation only while its epoch is epoch_.
  // Epoch and value share one word, so a test is one load.
  struct Mark {
    std::uint32_t epoch = 0;
    std::uint32_t value = 0;
  };
  std::vector<Mark> marks_;
  std::uint32_t epoch_ = 0;
  /// Starts an operation's marks (clearing them all when epoch_ wraps).
  void next_epoch();

  // Same trick over node ids: collect_absorbed stamps one endpoint's
  // neighborhood for O(1) membership tests.
  std::vector<std::uint64_t> node_stamp_;
  std::uint64_t node_epoch_ = 0;

  std::uint64_t batches_applied_ = 0;
  std::uint64_t cliques_created_ = 0;
  std::uint64_t cliques_retired_ = 0;
};

/// Registry hook for the `incremental` engine (caps.exact,
/// caps.canonical_clique_order). It deliberately exercises churn: it
/// bootstraps on the graph minus a held-back suffix of edges and apply()s
/// them as one batch, so every differential-matrix run covers the patch
/// path, not just the bootstrap.
Result run_incremental_full(const Options& options, const Graph& g);

}  // namespace kcc::cpm
