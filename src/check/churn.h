// Churn differential: proves the incremental CPM engine exact under edge
// batches (docs/TESTING.md#churn-differential).
//
// One *schedule* is a seeded base graph (check::generate_graph — the same
// corpus the engine-matrix fuzzer uses, degenerate shapes included) plus a
// randomized sequence of add/remove/rewire edge batches. The runner
// bootstraps a live cpm::IncrementalCpm on the base graph and, after every
// batch, holds its materialized result to three oracles:
//
//  * adjacency  — the maintained graph must equal the mutated test graph
//    edge-for-edge (cheap, catches index corruption before it can cancel
//    out in the community structure);
//  * digest     — cpm::canonical_text must be byte-identical to a
//    from-scratch sweep on the mutated graph (the sweep result is passed
//    through cpm::canonicalise_clique_order first — the incremental table
//    is lexicographic, see EngineCaps::canonical_clique_order);
//  * invariants — the first-principles oracles of invariants.h, which
//    share no percolation code with either engine.
//
// Schedule parameters (batch size ∈ {1, 3, 8}, thread count, clique
// backend, an occasional restricted k range) are derived from the schedule
// index, so `--seed S --schedules N` sweeps the option matrix
// deterministically. On failure the whole run is captured as a *delta
// stream* — initial graph plus the batch schedule truncated to the failing
// batch — the committed-reproducer format under tests/corpus/*.delta
// (grammar in docs/FORMATS.md#delta-streams, reader and writer in
// io/delta_stream.h), replayable byte-for-byte with replay_churn_delta
// (kcc_fuzz does this for every committed .delta).
//
// The KCC_CHECK_INJECT_FAULT hook (differential.h) applies here too: the
// first batch whose incremental result has a corruptible record gets one
// injected, and kcc_fuzz --expect-fault/--expect-repro turn that into the
// vacuous-harness self-test.
//
// obs counters: check_churn_schedules_total, check_churn_batches_total,
// check_churn_mismatches_total, plus the shared
// check_faults_injected_total (catalog in docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/generators.h"
#include "check/invariants.h"
#include "cpm/incr_cpm.h"

namespace kcc::check {

struct ChurnOptions {
  /// Batches per generated schedule (replays take their length from the
  /// delta stream instead).
  std::size_t batches = 6;
  /// The "N" of the alternating t1 / tN thread axis.
  std::size_t threads = 4;
  InvariantOptions invariants;
};

struct ChurnOutcome {
  /// e.g. "churn:er(n=23,p=0.31)/b3/tN/sparse".
  std::string label;
  std::size_t batches_applied = 0;
  std::size_t ops_applied = 0;
  std::uint64_t invariants_checked = 0;
  /// Empty iff every batch kept digest identity and every invariant held.
  std::string failure;
  /// On failure: the delta stream reproducing it (initial graph + schedule
  /// truncated to the failing batch), ready to write as a .delta artifact.
  std::string repro;
  /// True when KCC_CHECK_INJECT_FAULT corrupted a record in this run.
  bool fault_injected = false;

  bool ok() const { return failure.empty(); }
};

/// Runs schedule `index` for `seed`: base graph generate_graph(seed, index),
/// batch size / threads / backend / k range derived from `index`,
/// options.batches randomized batches, the three oracles after every batch.
ChurnOutcome run_churn_differential(std::uint64_t seed, std::size_t index,
                                    const ChurnOptions& options = {});

/// Replays a delta stream verbatim (committed .delta reproducers), running
/// the same per-batch oracles as run_churn_differential.
ChurnOutcome replay_churn_delta(const std::string& text,
                                const ChurnOptions& options = {});

}  // namespace kcc::check
