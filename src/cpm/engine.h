// cpm::Engine — the one front door to clique percolation.
//
// Historically the library exposed three divergent entry points: run_cpm
// (maximal-clique reduction, per-k percolation), reference_k_clique_communities
// (the literal Sec. 3 definition, used as a test oracle) and
// weighted_k_clique_communities (CPMw intensity filtering). Each had its own
// options and result shape, and none produced the community tree. The Engine
// facade unifies them: one Options struct selects the k range, the clique
// floor, the intensity threshold and the engine; one Result carries
// communities-by-k, the nesting tree and exactness provenance; stage wall
// times go to the run recorder (obs::StageScope), not into the Result.
// Every registered engine runs from a graph. The free functions that remain
// are the table entries the Engine calls after enumerating maximal cliques
// (run_sweep_cpm_on_cliques, run_cpm_on_cliques — also the per-k oracle —
// and run_almost_cpm_on_cliques); tests and benches may call them directly.
//
//   cpm::Options options;
//   options.max_k = 12;
//   cpm::Result result = cpm::Engine(options).run(graph);
//   use(result.cpm.at(5), result.tree);
//
// Engines are looked up by name in a string-keyed registry
// (engine_registry(), a fixed table of the built-ins) instead of a closed
// enum, so adding a backend — approximate ones included — touches only the
// table, not every dispatch site. Each EngineInfo carries capability flags;
// CLI help text, the kcc_bench matrix and the check::differential axis are
// all generated from the registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "clique/enumerator.h"
#include "common/cli.h"
#include "cpm/community_tree.h"
#include "cpm/cpm.h"
#include "graph/graph.h"
#include "graph/weighted_graph.h"

namespace kcc::cpm {

struct Options;
struct Result;

/// Whether an engine's output is byte-identical to the exact CPM definition
/// or a bounded approximation of it. Carried on every Result so downstream
/// artifacts (run reports, canonical text, bench JSON) are self-describing.
enum class Exactness { kExact, kAlmostExact };

const char* exactness_name(Exactness exactness);

/// Capability flags of a registered engine. The differential matrix, the
/// bench matrix and option validation key off these instead of hardcoding
/// engine names.
struct EngineCaps {
  /// Output is byte-identical to every other exact engine (the digest gate
  /// applies). Approximate engines are compared by community similarity
  /// (cpm/compare.h) instead.
  bool exact = true;
  /// Exponential-time validation oracle: only safe on tiny graphs. Matrix
  /// generators cap the input size for these.
  bool exponential = false;
  /// The engine emits its clique table in lexicographic order rather than
  /// enumeration order (the incremental engine cannot preserve enumeration
  /// order across edge churn). Digest comparisons against enumeration-
  /// ordered engines must first pass those Results through
  /// canonicalise_clique_order() — clique order is a serialization detail
  /// of canonical_text, not part of the CPM output.
  bool canonical_clique_order = false;
};

/// One registered percolation backend: name, one-line summary (used to
/// generate --engine help text), capabilities and the dispatch hook.
struct EngineInfo {
  std::string name;
  std::string summary;
  EngineCaps caps;
  /// Full run over a graph; never null.
  Result (*run)(const Options&, const Graph&) = nullptr;
};

/// The built-in engines, in a fixed order: sweep (default; one
/// descending-k union-find sweep over overlap pairs born into per-overlap
/// buckets, tree from the levels), per_k (one independent percolation per
/// k, run in parallel across k, over the pairs of the same per-clique join;
/// the original LP-CPM structure, kept as the reference oracle),
/// incremental (live clique table patched under edge batches —
/// cpm/incr_cpm.h — materialized through the sweep; exact, lexicographic
/// clique order), almost_exact (Baudin et al. 2021 bounded-memory percolation over
/// per-node community candidates — no overlap join; approximate; the same
/// level loop as sweep) and reference (the literal k-clique-graph
/// definition; exponential). docs/ALGORITHMS.md compares them with
/// measured numbers.
const std::vector<EngineInfo>& engine_registry();

/// Registry lookup; nullptr when `name` is unknown.
const EngineInfo* find_engine(const std::string& name);

/// Registry lookup; throws kcc::Error listing the registered names when
/// `name` is unknown.
const EngineInfo& engine_info(const std::string& name);

/// "sweep|per_k|incremental|almost_exact|reference" — the registered names
/// joined with `sep`, for help/error text.
std::string engine_names_joined(char sep = '|');

struct Options {
  /// Smallest community order to extract (>= 2).
  std::size_t min_k = 2;

  /// Largest community order; 0 means "up to the maximum clique size" (for
  /// the reference and weighted paths: until a k yields no community).
  std::size_t max_k = 0;

  /// Maximal cliques smaller than this are dropped before percolation
  /// (>= 2). Raising it prunes the overlap index when only high k matters.
  /// Must be <= min_k (Engine and IncrementalCpm throw kcc::Error naming
  /// both values otherwise): every level, k = 2 included, percolates the
  /// clique table, so a level below the floor would read a truncated one.
  std::size_t min_clique_size = 2;

  /// Worker threads; 0 means hardware concurrency, 1 forces sequential.
  std::size_t threads = 0;

  /// Registry name of the percolation backend (see engine_registry()).
  std::string engine = "sweep";

  /// Which maximal-clique kernel feeds the percolation (all engines except
  /// reference, which enumerates k-cliques itself). `auto` picks bitset for
  /// any graph dense enough to profit; `sparse` is the historical merge
  /// kernel. Output is byte-identical across backends (canonical_digest
  /// does not depend on this knob — check::differential proves it).
  clique::Backend clique_backend = clique::Backend::kAuto;

  /// Bitset backend only: subproblems with more candidates than this fall
  /// back to the sparse kernel (0 = library default; see
  /// clique::Options::bitset_max_universe).
  std::size_t bitset_max_universe = 0;

  /// Weighted runs (Engine::run_weighted) keep only k-cliques whose
  /// intensity (geometric mean edge weight) reaches this threshold.
  double intensity_threshold = 0.0;

  /// Safety valve for weighted runs: abort when a single k would enumerate
  /// more than this many k-cliques (0 disables).
  std::size_t max_weighted_cliques = 5'000'000;

  /// Skip tree assembly (Result::has_tree stays false).
  bool build_tree = true;

  /// Projection onto the legacy per-engine option struct (k range and
  /// threads).
  CpmOptions cpm_options() const;
};

struct Result {
  CpmResult cpm;       // communities for every k, plus the clique table
  CommunityTree tree;  // valid iff has_tree
  bool has_tree = false;
  /// Provenance: which registered engine produced this, and whether its
  /// output is exact. Serialized into canonical_text headers and run
  /// reports.
  std::string engine_name = "sweep";
  Exactness exactness = Exactness::kExact;
};

class Engine {
 public:
  explicit Engine(Options options = {});

  const Options& options() const { return options_; }
  const EngineInfo& info() const { return *info_; }

  /// Extracts communities + tree from `g` with the selected engine. Stage
  /// wall times (cliques / percolate / tree) go to obs::RunRecorder.
  Result run(const Graph& g) const;

  /// CPMw: communities among k-cliques whose intensity reaches
  /// options().intensity_threshold. Intensity filtering can break the
  /// nesting theorem, so no tree is produced.
  Result run_weighted(const Graph& g, const EdgeWeights& weights) const;

 private:
  Options options_;
  const EngineInfo* info_;  // resolved at construction; never null
};

/// What the canonical serialization covers. The reference engine produces
/// node sets only (no clique table, no clique ids; its tree is resolved by
/// node containment), so comparisons against it drop those sections.
struct CanonicalOptions {
  bool include_cliques = true;
  bool include_clique_ids = true;
  bool include_tree = true;
};

/// Deterministic line-oriented serialization of a Result, opening with an
/// `exactness exact|almost_exact` header. Two Results are byte-identical
/// under the exact engines' output contract iff their canonical texts are
/// equal; the check:: differential runner diffs these to pinpoint the first
/// divergence between engines. Approximate results are compared by
/// similarity instead (cpm/compare.h).
std::string canonical_text(const Result& result,
                           const CanonicalOptions& options = {});

/// FNV-1a 64-bit digest of canonical_text — a cheap equality fingerprint.
std::uint64_t canonical_digest(const Result& result,
                               const CanonicalOptions& options = {});

/// Re-orders Result::cpm.cliques lexicographically and remaps every
/// community's clique_ids accordingly (re-sorted ascending). Community node
/// sets, community order and the tree are untouched. After this, an exact
/// enumeration-ordered Result is byte-identical (canonical_text) to the
/// same run from an engine with caps.canonical_clique_order — the
/// equivalence check::differential and check::churn_differential rely on.
void canonicalise_clique_order(Result& result);

/// Flag names of the shared engine CLI surface (--k-min, --k-max, --engine,
/// --threads, --clique-backend); append these to a binary's known-flag
/// list so unknown flags still fail loudly.
const std::vector<std::string>& engine_cli_flags();

/// Applies the shared engine flags on top of `defaults`:
///   --k-min=N --k-max=N --engine=NAME --threads=N
///   --clique-backend=auto|sparse|bitset
/// --engine accepts any registered name (see engine_registry()). Negative
/// --k-min, --k-max or --threads throw kcc::Error naming the flag.
Options options_from_cli(const CliArgs& args, Options defaults = {});

}  // namespace kcc::cpm
