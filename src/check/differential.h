// Differential runner: all engines × option matrix on one graph.
//
// The variant matrix is generated from the cpm engine registry
// (cpm::engine_registry()), so a newly registered backend joins the axis
// without touching this file. For each option group (the full k range and a
// restricted one) a baseline engine runs first (per_k, single-threaded —
// the structure closest to the original LP-CPM oracle); every other *exact*
// variant (each registered exact engine × threads ∈ {1, N}, the
// auto/bitset backend crosses, and — on tiny graphs — the exponential
// reference engine) must produce a
// byte-identical canonical serialization (cpm::canonical_text). The
// baseline result is also validated from first principles by the invariant
// oracles (invariants.h). Any divergence is reported as the first differing
// canonical line, which pinpoints the k level / community / tree node that
// went wrong.
//
// Approximate engines (EngineCaps::exact == false, e.g. almost_exact) are
// exempt from the digest gate and held to a gap threshold instead: each
// runs at t1 and tN (the two must still be byte-identical to each other —
// approximation is no excuse for nondeterminism) and is scored against the
// baseline with cpm::compare_results; worst per-k community F1 below
// DiffOptions::approx_min_f1 is a failure.
//
// Fault-injection self-test: when the KCC_CHECK_INJECT_FAULT environment
// variable is set ("community" | "clique-map" | "clique-twice" | "tree"),
// the runner corrupts one record of the final exact variant's result before
// diffing. A healthy harness must detect the corruption —
// tools/kcc_fuzz.cpp --expect-fault turns this into a ctest guard against a
// vacuously-green fuzzer.
//
// obs counters: check_graphs_total, check_variants_total,
// check_invariants_total, check_mismatches_total, check_faults_injected_total
// plus the cpm_gap_* family from compare_results
// (catalog in docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <string>

#include "check/generators.h"
#include "check/invariants.h"
#include "graph/graph.h"

namespace kcc::check {

struct DiffOptions {
  /// The "N" of the threads ∈ {1, N} axis.
  std::size_t threads = 4;
  /// Run the exponential reference engine when the graph is small enough.
  bool include_reference = true;
  std::size_t reference_max_nodes = 24;
  std::size_t reference_max_edges = 80;
  /// Also run a restricted-k-range option group (min_k = 3, max_k = 5).
  bool include_restricted_range = true;
  /// Run the registered approximate engines (almost_exact) in gap-threshold
  /// mode against the baseline.
  bool include_approximate = true;
  /// Worst per-k community F1 an approximate engine may produce before the
  /// run counts as a failure.
  double approx_min_f1 = 0.99;
  InvariantOptions invariants;
};

struct DiffOutcome {
  /// Variant labels that were executed, e.g. "sweep/t1", "sweep/tN/auto".
  std::size_t variants_run = 0;
  std::uint64_t invariants_checked = 0;
  /// Worst per-k community F1 any approximate engine scored against the
  /// baseline (1.0 when none ran or all were perfect).
  double worst_approx_f1 = 1.0;
  /// Empty iff everything agreed and every invariant held.
  std::string failure;
  /// True when KCC_CHECK_INJECT_FAULT corrupted a record in this run.
  bool fault_injected = false;

  bool ok() const { return failure.empty(); }
};

/// Runs the full engine/option matrix on `g` and diffs canonical results.
DiffOutcome run_differential(const Graph& g, const DiffOptions& options = {});

/// Convenience overload building the graph from a corpus entry.
DiffOutcome run_differential(const TestGraph& graph,
                             const DiffOptions& options = {});

namespace detail {

/// Test-only corruption hook shared by the differential and churn runners
/// (KCC_CHECK_INJECT_FAULT): corrupts one record of `result` of the given
/// kind and returns a description of what was corrupted, or an empty string
/// when the result has no record of that kind. Kinds: "community" drops a
/// community node, "clique-map" drops a clique id so no community of its
/// level lists it, "clique-twice" lists one community's clique under a
/// second community of the same level (nothing on a level with only one),
/// "tree" flips a tree node's is_main bit. Throws kcc::Error on an unknown
/// kind.
std::string inject_fault(cpm::Result& result, const std::string& kind);

/// First line where two canonical texts diverge, with both readings
/// (empty string when identical).
std::string first_diff(const std::string& base_label, const std::string& base,
                       const std::string& label, const std::string& text);

}  // namespace detail

}  // namespace kcc::check
