#include "check/differential.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "clique/enumerator.h"
#include "common/error.h"
#include "cpm/compare.h"
#include "cpm/sweep_cpm.h"
#include "obs/metrics.h"

namespace kcc::check {
namespace {

struct Variant {
  std::string label;
  cpm::Options options;
  bool node_sets_only = false;  // reference engine: no cliques / map / tree
  bool approximate = false;     // gap-threshold mode instead of digest gate
};

// One option group: a k range plus every engine/thread/budget/backend
// combination that must agree on it. The baseline is variants.front().
// The engine rows come from the registry: every exact, polynomial engine
// gets t1 / tN / t1-bitset variants (pinning the sparse kernel on the
// thread axis and crossing backends against it, so one group proves both
// percolation equivalence and kernel equivalence), budget-capable engines
// add a forced-spill and an auto-backend variant, and the default engine
// adds the tN-bitset and bitset-hub crosses. Exponential oracles join on
// tiny graphs only; approximate engines are appended last, flagged for the
// gap gate.
std::vector<Variant> build_matrix(std::size_t min_k, std::size_t max_k,
                                  const Graph& g, const DiffOptions& diff) {
  const std::string suffix =
      max_k == 0 ? "" : "/k" + std::to_string(min_k) + "-" + std::to_string(max_k);
  auto make = [&](const std::string& label, const std::string& engine,
                  std::size_t threads, clique::Backend backend) {
    Variant v;
    v.label = label + suffix;
    v.options.engine = engine;
    v.options.min_k = min_k;
    v.options.max_k = max_k;
    v.options.threads = threads;
    v.options.clique_backend = backend;
    return v;
  };
  const clique::Backend sparse = clique::Backend::kSparse;
  const std::string default_engine = cpm::Options{}.engine;
  std::vector<Variant> matrix;
  // Baseline: per_k single-threaded — the structure closest to the original
  // LP-CPM oracle, and the variant the invariant oracles run on.
  matrix.push_back(make("per_k/t1", "per_k", 1, sparse));

  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    if (!info.caps.exact || info.caps.exponential) continue;
    if (info.name != "per_k") {  // baseline already holds per_k/t1
      matrix.push_back(make(info.name + "/t1", info.name, 1, sparse));
    }
    matrix.push_back(
        make(info.name + "/tN", info.name, diff.threads, sparse));
    matrix.push_back(make(info.name + "/t1/bitset", info.name, 1,
                          clique::Backend::kBitset));
    if (info.caps.supports_memory_budget) {
      // Forced spill: the smallest budget the engine accepts, so overlap
      // pairs round-trip through the spill files.
      Variant v = make(info.name + "/t1/spill", info.name, 1, sparse);
      v.options.memory_budget = sweep_min_memory_budget();
      matrix.push_back(v);
      matrix.push_back(make(info.name + "/tN/auto", info.name, diff.threads,
                            clique::Backend::kAuto));
    }
    if (info.name == default_engine) {
      matrix.push_back(make(info.name + "/tN/bitset", info.name,
                            diff.threads, clique::Backend::kBitset));
      // Hub fallback: a tiny universe cap forces most subproblems down the
      // sparse path *inside* the bitset backend, exercising the
      // per-subproblem kernel hand-off.
      Variant v = make(info.name + "/t1/bitset-hub", info.name, 1,
                       clique::Backend::kBitset);
      v.options.bitset_max_universe = 4;
      matrix.push_back(v);
    }
  }

  if (diff.include_reference && g.num_nodes() <= diff.reference_max_nodes &&
      g.num_edges() <= diff.reference_max_edges) {
    for (const cpm::EngineInfo& info : cpm::engine_registry()) {
      if (!info.caps.exact || !info.caps.exponential) continue;
      Variant v = make(info.name, info.name, 1, sparse);
      v.options.build_tree = false;  // dropped from the comparison anyway
      v.node_sets_only = true;
      matrix.push_back(v);
    }
  }

  if (diff.include_approximate) {
    for (const cpm::EngineInfo& info : cpm::engine_registry()) {
      if (info.caps.exact) continue;
      for (const std::size_t threads : {std::size_t{1}, diff.threads}) {
        Variant v = make(
            info.name + (threads == 1 ? "/t1" : "/tN"), info.name, threads,
            sparse);
        v.approximate = true;
        matrix.push_back(v);
      }
    }
  }
  return matrix;
}

}  // namespace

namespace detail {

std::string first_diff(const std::string& base_label, const std::string& base,
                       const std::string& label, const std::string& text) {
  std::istringstream a(base), b(text);
  std::string line_a, line_b;
  std::size_t line_no = 1;
  while (true) {
    const bool has_a = static_cast<bool>(std::getline(a, line_a));
    const bool has_b = static_cast<bool>(std::getline(b, line_b));
    if (!has_a && !has_b) return {};  // identical
    if (!has_a || !has_b || line_a != line_b) {
      std::ostringstream out;
      out << label << " diverges from " << base_label << " at canonical line "
          << line_no << ":\n  " << base_label << ": "
          << (has_a ? line_a : std::string("<end>")) << "\n  " << label
          << ": " << (has_b ? line_b : std::string("<end>"));
      return out.str();
    }
    ++line_no;
  }
}

// Test-only corruption hook (see header). Returns a description of what was
// corrupted, or empty when the result has no record of the requested kind.
std::string inject_fault(cpm::Result& result, const std::string& kind) {
  if (kind == "community") {
    for (CommunitySet& set : result.cpm.by_k) {
      for (Community& c : set.communities) {
        if (!c.nodes.empty()) {
          c.nodes.pop_back();
          return "dropped a node from k=" + std::to_string(set.k) +
                 " community " + std::to_string(c.id);
        }
      }
    }
    return {};
  }
  if (kind == "clique-map") {
    for (CommunitySet& set : result.cpm.by_k) {
      if (!set.community_of_clique.empty()) {
        CommunityId& entry = set.community_of_clique[0];
        entry = entry == CommunitySet::kNoCommunity
                    ? CommunityId{0}
                    : CommunitySet::kNoCommunity;
        return "flipped community_of_clique[0] at k=" + std::to_string(set.k);
      }
    }
    return {};
  }
  if (kind == "tree") {
    if (result.has_tree && !result.tree.nodes().empty()) {
      // The canonical text serializes is_main; a const_cast keeps the hook
      // out of the CommunityTree API surface.
      auto& node = const_cast<TreeNode&>(result.tree.nodes()[0]);
      node.is_main = !node.is_main;
      return "flipped is_main on tree node 0";
    }
    return {};
  }
  throw Error("KCC_CHECK_INJECT_FAULT: unknown fault kind '" + kind +
              "' (community|clique-map|tree)");
}

}  // namespace detail

DiffOutcome run_differential(const Graph& g, const DiffOptions& options) {
  auto& graphs_total = obs::metrics().counter("check_graphs_total");
  auto& variants_total = obs::metrics().counter("check_variants_total");
  auto& invariants_total = obs::metrics().counter("check_invariants_total");
  auto& mismatches_total = obs::metrics().counter("check_mismatches_total");
  auto& faults_total = obs::metrics().counter("check_faults_injected_total");
  graphs_total.inc();

  const char* fault_env = std::getenv("KCC_CHECK_INJECT_FAULT");
  const std::string fault_kind = fault_env ? fault_env : "";

  DiffOutcome outcome;
  std::vector<std::pair<std::size_t, std::size_t>> groups{{2, 0}};
  if (options.include_restricted_range) groups.push_back({3, 5});

  for (const auto& [min_k, max_k] : groups) {
    const std::vector<Variant> matrix = build_matrix(min_k, max_k, g, options);
    // The last non-reference exact variant hosts the injected fault, so all
    // three fault kinds (community / clique-map / tree) have a record to
    // corrupt and the digest gate must catch it.
    std::size_t fault_target = matrix.size();
    if (!fault_kind.empty()) {
      for (std::size_t i = matrix.size(); i-- > 0;) {
        if (!matrix[i].node_sets_only && !matrix[i].approximate) {
          fault_target = i;
          break;
        }
      }
    }

    cpm::Result baseline_result;     // kept for approximate-engine scoring
    std::string baseline_text;       // full canonical serialization
    std::string baseline_node_text;  // node-sets-only projection
    // Lazily-built projection for engines whose caps declare a
    // lexicographic clique table (canonical_clique_order): the baseline
    // passed through cpm::canonicalise_clique_order. Clique order is a
    // serialization detail, so normalizing the baseline keeps the gate
    // byte-exact without exempting those engines from it.
    std::string baseline_lex_text;
    // Previous approximate run per engine name: t1 vs tN must be identical.
    std::string approx_prev_label, approx_prev_engine, approx_prev_text;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      const Variant& variant = matrix[i];
      cpm::Result result = cpm::Engine(variant.options).run(g);
      ++outcome.variants_run;
      variants_total.inc();

      if (i == fault_target) {
        const std::string injected = detail::inject_fault(result, fault_kind);
        if (!injected.empty()) {
          outcome.fault_injected = true;
          faults_total.inc();
        }
      }

      if (i == 0) {
        // Baseline: serialize both projections and run the invariant
        // oracles. Differential equality extends their verdict to every
        // variant that matches byte-for-byte.
        baseline_text = cpm::canonical_text(result);
        baseline_node_text =
            cpm::canonical_text(result, {false, false, false});
        Report report = check_invariants(g, result, options.invariants);
        outcome.invariants_checked += report.invariants_checked;
        invariants_total.inc(report.invariants_checked);
        if (!report.ok()) {
          mismatches_total.inc(report.failures.size());
          if (outcome.failure.empty()) {
            outcome.failure =
                "invariants violated on " + variant.label + ":\n" +
                report.to_string();
          }
        }
        baseline_result = std::move(result);
        continue;
      }

      if (variant.approximate) {
        // Gap mode: no digest gate against the baseline, but (a) the engine
        // must be deterministic across thread counts and (b) its community
        // F1 against the exact baseline must clear the threshold.
        const std::string text = cpm::canonical_text(result);
        if (approx_prev_engine == variant.options.engine) {
          const std::string diff =
              detail::first_diff(approx_prev_label, approx_prev_text,
                                 variant.label, text);
          if (!diff.empty()) {
            mismatches_total.inc();
            if (outcome.failure.empty()) {
              outcome.failure = "approximate engine nondeterminism: " + diff;
            }
          }
        }
        approx_prev_label = variant.label;
        approx_prev_engine = variant.options.engine;
        approx_prev_text = text;

        cpm::CompareOptions compare_options;
        compare_options.min_f1 = options.approx_min_f1;
        const cpm::Comparison gap =
            cpm::compare_results(baseline_result, result, compare_options);
        outcome.worst_approx_f1 =
            std::min(outcome.worst_approx_f1, gap.worst_f1);
        if (!gap.ok) {
          mismatches_total.inc();
          if (outcome.failure.empty()) {
            outcome.failure = variant.label + " exceeds the exactness gap (" +
                              gap.summary + ")";
          }
        }
        continue;
      }

      const bool lex_cliques =
          cpm::engine_info(variant.options.engine).caps.canonical_clique_order;
      if (lex_cliques && baseline_lex_text.empty()) {
        cpm::Result reordered = baseline_result;
        cpm::canonicalise_clique_order(reordered);
        baseline_lex_text = cpm::canonical_text(reordered);
      }
      const std::string text =
          variant.node_sets_only
              ? cpm::canonical_text(result, {false, false, false})
              : cpm::canonical_text(result);
      const std::string& base = variant.node_sets_only ? baseline_node_text
                                : lex_cliques          ? baseline_lex_text
                                                       : baseline_text;
      const std::string diff =
          detail::first_diff(matrix[0].label, base, variant.label, text);
      if (!diff.empty()) {
        mismatches_total.inc();
        if (outcome.failure.empty()) outcome.failure = diff;
      }
    }
  }
  return outcome;
}

DiffOutcome run_differential(const TestGraph& graph,
                             const DiffOptions& options) {
  const Graph g = graph.build();
  DiffOutcome outcome = run_differential(g, options);
  if (!outcome.ok()) {
    outcome.failure = "graph '" + graph.name + "' (" +
                      std::to_string(g.num_nodes()) + " nodes, " +
                      std::to_string(g.num_edges()) + " edges): " +
                      outcome.failure;
  }
  return outcome;
}

}  // namespace kcc::check
