// cpm::Engine — the one front door to clique percolation.
//
// Historically the library exposed three divergent entry points: run_cpm
// (maximal-clique reduction, per-k percolation), reference_k_clique_communities
// (the literal Sec. 3 definition, used as a test oracle) and
// weighted_k_clique_communities (CPMw intensity filtering). Each had its own
// options and result shape, and none produced the community tree. The Engine
// facade unifies them: one Options struct selects the k range, the clique
// floor, the intensity threshold and the engine; one Result carries
// communities-by-k, the nesting tree, per-stage timings and exactness
// provenance. The old free functions remain as thin compatibility wrappers —
// new code should construct an Engine.
//
//   cpm::Options options;
//   options.max_k = 12;
//   cpm::Result result = cpm::Engine(options).run(graph);
//   use(result.cpm.at(5), result.tree);
//
// Engines are looked up by name in a string-keyed registry
// (engine_registry()) instead of a closed enum, so backends can be added —
// including approximate ones — without touching every dispatch site. Each
// EngineInfo carries capability flags; CLI help text, the kcc_bench matrix
// and the check::differential axis are all generated from the registry.
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
  /// Honors Options::memory_budget / Options::spill_dir.
  bool supports_memory_budget = false;
  /// Produces the Fig. 4.2 nesting tree when Options::build_tree is set.
  bool supports_tree = true;
  /// Engine::run_on_cliques works (the engine consumes a pre-enumerated
  /// maximal-clique table). False for engines that enumerate k-cliques
  /// themselves.
  bool supports_run_on_cliques = true;
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
/// generate --engine help text), capabilities and the dispatch hooks.
struct EngineInfo {
  std::string name;
  std::string summary;
  EngineCaps caps;
  /// Full run over a graph. Null = use the generic path (shared clique
  /// enumeration followed by run_on_cliques).
  Result (*run)(const Options&, const Graph&) = nullptr;
  /// Run over a pre-enumerated clique table. Null iff
  /// !caps.supports_run_on_cliques.
  Result (*run_on_cliques)(const Options&, const Graph&,
                           std::vector<NodeSet>) = nullptr;
};

/// All registered engines, built-ins first, in registration order. The
/// built-ins: sweep (default; single descending-k union-find sweep over
/// overlap pairs born into per-overlap buckets, tree in the same pass,
/// optional spill-to-disk under --memory-budget), per_k (one independent
/// percolation per k; the original LP-CPM structure, kept as the reference
/// oracle),
/// incremental (live clique/overlap state patched under edge batches —
/// cpm/incr_cpm.h — materialized through the sweep tail; exact,
/// lexicographic clique order), almost_exact (Baudin et al. 2021
/// bounded-memory percolation over per-node community candidates — no
/// overlap join; approximate) and reference (the literal k-clique-graph
/// definition; exponential). docs/ALGORITHMS.md compares them with
/// measured numbers.
const std::vector<EngineInfo>& engine_registry();

/// Registry lookup; nullptr when `name` is unknown.
const EngineInfo* find_engine(const std::string& name);

/// Registry lookup; throws kcc::Error listing the registered names when
/// `name` is unknown.
const EngineInfo& engine_info(const std::string& name);

/// Adds an engine to the registry (throws on a duplicate name). Intended
/// for out-of-tree experiments; the built-ins are always present.
void register_engine(EngineInfo info);

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

  /// Engines with caps.supports_memory_budget (sweep) only: cap on
  /// resident overlap-pair bytes; 0 means unlimited. Non-zero budgets below
  /// sweep_min_memory_budget() are rejected by the Engine constructor,
  /// before any work. Other engines ignore it.
  std::uint64_t memory_budget = 0;

  /// Same engines only: directory for spill files (empty = system temp
  /// directory). Must exist and be writable — validated at Engine::run
  /// entry so a bad path fails before any work, not at the first spill.
  std::string spill_dir;

  /// Weighted runs (Engine::run_weighted) keep only k-cliques whose
  /// intensity (geometric mean edge weight) reaches this threshold.
  double intensity_threshold = 0.0;

  /// Safety valve for weighted runs: abort when a single k would enumerate
  /// more than this many k-cliques (0 disables).
  std::size_t max_weighted_cliques = 5'000'000;

  /// Skip tree assembly (Result::has_tree stays false).
  bool build_tree = true;

  /// Projection onto the legacy per-engine option struct (k range and
  /// threads; the sweep engine adds the budget fields itself).
  CpmOptions cpm_options() const;
};

/// Wall-clock seconds per stage of the last run.
struct Timings {
  double cliques_seconds = 0.0;    // maximal-clique enumeration
  double percolate_seconds = 0.0;  // community extraction (all k)
  double tree_seconds = 0.0;       // nesting-tree assembly
  double total_seconds = 0.0;
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
  Timings timings;
};

class Engine {
 public:
  explicit Engine(Options options = {});

  const Options& options() const { return options_; }
  const EngineInfo& info() const { return *info_; }

  /// Enumerates maximal cliques of `g` and extracts communities + tree.
  Result run(const Graph& g) const;

  /// Same over a pre-enumerated maximal-clique set (sorted, size >= 2).
  /// Throws for engines with !caps.supports_run_on_cliques (reference,
  /// which enumerates k-cliques itself).
  Result run_on_cliques(const Graph& g, std::vector<NodeSet> cliques) const;

  /// CPMw: communities among k-cliques whose intensity reaches
  /// options().intensity_threshold. Intensity filtering can break the
  /// nesting theorem, so no tree is produced.
  Result run_weighted(const Graph& g, const EdgeWeights& weights) const;

 private:
  Options options_;
  const EngineInfo* info_;  // resolved at construction; never null
};

/// What the canonical serialization covers. The reference engine produces
/// node sets only (no clique table, no clique ids, no in-pass tree), so
/// comparisons against it drop those sections.
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

/// Re-orders Result::cpm.cliques lexicographically and remaps every clique
/// id (community clique_ids, re-sorted ascending, and community_of_clique)
/// accordingly. Community node sets, community order and the tree are
/// untouched. After this, an exact enumeration-ordered Result is
/// byte-identical (canonical_text) to the same run from an engine with
/// caps.canonical_clique_order — the equivalence check::differential and
/// check::churn_differential rely on.
void canonicalise_clique_order(Result& result);

/// Flag names of the shared engine CLI surface (--k-min, --k-max, --engine,
/// --threads, --memory-budget, --clique-backend); append these to a
/// binary's known-flag list so unknown flags still fail loudly.
const std::vector<std::string>& engine_cli_flags();

/// Applies the shared engine flags on top of `defaults`:
///   --k-min=N --k-max=N --engine=NAME --threads=N
///   --memory-budget=BYTES[K|M|G] --clique-backend=auto|sparse|bitset
/// --engine accepts any registered name (see engine_registry()).
Options options_from_cli(const CliArgs& args, Options defaults = {});

}  // namespace kcc::cpm
