// Incremental CPM engine — exact clique percolation under edge churn.
//
// The AS-level topology is not static: the serving scenario (ROADMAP item
// 3) needs community results that track edge updates without recomputing
// from scratch. This engine holds live state — the maximal-clique table
// and a per-node clique index, O(Σ|clique|) in all — and patches it
// locally per edge, so a batch touching b edges costs work proportional to
// the affected neighborhoods, not the graph. No clique pair is stored:
// the overlap pairs are derived afresh from the table when a result is
// materialized.
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
//    Q \ {u} or Q \ {v} of a dying clique Q with |Q| >= 3 (an edge Q
//    leaves single nodes, which are no clique of the table). Fragments are
//    pairwise incomparable and never collide with a surviving clique (v
//    was adjacent to all of Q \ {v}, contradicting that clique's prior
//    maximality), so insertion needs no dedup.
//
// One witness rule settles every fragment: Q \ {x} is maximal in G'
// unless a clique D != Q of the table holds all of it. Such a D misses x
// (it would strictly contain Q otherwise), so it survives and contains the
// fragment strictly; conversely, a node adjacent in G' to the whole
// fragment extends it to a clique of G whose maximal clique is such a D.
// The test stamps the fragment's nodes, scans the shortest clique list
// among its members and counts stamped members. Every dying clique of a
// removal is settled against the table as it stood with the edge, before
// any slot changes; then the dying cliques retire and the kept fragments
// go in as plain inserts.
//
// The per-node clique index is lazily invalidated — a retire bumps the
// slot's generation and leaves the stale references in place; scans skip
// (and compact away) entries whose stamped generation no longer matches,
// and an amortized global compaction bounds the stale fraction.
//
// Materialization re-enters the sweep engine over the kept table
// (run_sweep_cpm_on_cliques with the node count): the overlap join,
// communities, ids, maps and tree are produced by literally the same code
// as a from-scratch sweep, so exactness reduces to the clique maintenance
// above. The alive cliques are kept in lexicographic order across batches
// (sorted once at bootstrap; a batch sorts only its newborns and merges
// them in), so materialization never sorts the table. The
// check::churn_differential harness re-proves the digest identity against
// a from-scratch run after every batch of every fuzzed schedule.
//
// One serialization caveat: the table is emitted in lexicographic order
// (churn cannot preserve enumeration order), so digest comparisons against
// the registry's engines, which emit enumeration order, go through
// cpm::canonicalise_clique_order().
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
  /// Bootstraps from a full maximal-clique enumeration of `g` (the
  /// `cliques` run-report stage: enumeration, node index and lexicographic
  /// order). Honors options.min_k / max_k / min_clique_size / threads /
  /// clique_backend / bitset_max_universe / build_tree; options.engine is
  /// ignored (this state IS the engine). The k range and clique floor only
  /// filter materialization — the maintained table always holds every
  /// maximal clique of size >= 2, which the update theorems require.
  /// Throws kcc::Error naming both values when min_clique_size > min_k
  /// (see Options::min_clique_size).
  explicit IncrementalCpm(const Graph& g, Options options = {});

  /// Applies one edge batch: removes first, then adds, each patching the
  /// clique table and per-node index locally, then merges the batch's new
  /// cliques into the kept order; one `apply` run-report stage. Throws
  /// kcc::Error on an invalid batch (see EdgeBatch) with the state
  /// untouched.
  void apply(const EdgeBatch& batch);

  /// Materializes the Result for the current graph by running the sweep
  /// (run_sweep_cpm_on_cliques with the node count, overlap join
  /// included) over the maintained clique table, in the lexicographic
  /// order kept across batches (no sort here): no Graph is rebuilt. The
  /// table copy is the `materialize` run-report stage (obs::StageScope),
  /// the sweep's levels and tree step its `percolate` and `tree` stages.
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
  /// Whether a clique other than `q` holds all of q \ {x}: the fragment's
  /// witness, so it is not maximal once the removed edge is gone.
  bool witnessed_without(CliqueId q, NodeId x);
  /// Inserts a new maximal clique into a free slot and the node index.
  void insert_clique(NodeSet nodes);

  /// A lazily-invalidated reference to clique slot `clique`: valid iff
  /// `gen == gen_[clique]` (a retire bumps the slot generation, so stale
  /// entries — including ones pointing at a since-reused slot — fail the
  /// check without ever being eagerly removed).
  struct CliqueRef {
    CliqueId clique;
    std::uint32_t gen;
  };
  bool valid(CliqueRef e) const { return gen_[e.clique] == e.gen; }
  /// Retires clique slot `c`.
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
  /// Upper bound on stale cliques_of_node_ entries, reset by
  /// compact_if_needed().
  std::size_t stale_entries_ = 0;

  // Epoch stamps over node ids, reused across operations so no per-op
  // clearing is needed: collect_absorbed stamps one endpoint's
  // neighborhood, witnessed_without a fragment's nodes.
  std::vector<std::uint64_t> node_stamp_;
  std::uint64_t node_epoch_ = 0;

  std::uint64_t batches_applied_ = 0;
  std::uint64_t cliques_created_ = 0;
  std::uint64_t cliques_retired_ = 0;
};

}  // namespace kcc::cpm
