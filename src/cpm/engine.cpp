#include "cpm/engine.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "cpm/almost_cpm.h"
#include "cpm/incr_cpm.h"
#include "cpm/reference_cpm.h"
#include "cpm/sweep_cpm.h"
#include "cpm/weighted_cpm.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace kcc::cpm {
namespace {

// Wraps plain per-k node-set lists (reference / weighted results) in the
// common CpmResult shape. Communities carry no clique ids; tree assembly
// falls back to node-containment parent search.
CpmResult result_from_node_sets(std::size_t min_k,
                                std::vector<std::vector<NodeSet>> by_k) {
  CpmResult result;
  result.min_k = min_k;
  result.max_k = min_k + by_k.size() - 1;  // wraps to min_k - 1 when empty
  for (std::size_t i = 0; i < by_k.size(); ++i) {
    CommunitySet set;
    set.k = min_k + i;
    // Re-establish the canonical order (size desc, nodes lex) shared by all
    // engines; the oracle lists communities lexicographically.
    std::sort(by_k[i].begin(), by_k[i].end(),
              [](const NodeSet& a, const NodeSet& b) {
                if (a.size() != b.size()) return a.size() > b.size();
                return a < b;
              });
    for (CommunityId id = 0; id < by_k[i].size(); ++id) {
      Community c;
      c.k = set.k;
      c.id = id;
      c.nodes = std::move(by_k[i][id]);
      set.communities.push_back(std::move(c));
    }
    result.by_k.push_back(std::move(set));
  }
  return result;
}

// Runs `communities_at(k)` for ascending k until the range is exhausted:
// either the configured max_k, or the first empty k when max_k is 0 (the
// nesting theorem guarantees no later k can be non-empty).
template <typename Fn>
CpmResult collect_per_k(const Options& options, Fn&& communities_at) {
  std::vector<std::vector<NodeSet>> by_k;
  for (std::size_t k = options.min_k;
       options.max_k == 0 || k <= options.max_k; ++k) {
    std::vector<NodeSet> communities = communities_at(k);
    if (communities.empty() && options.max_k == 0) break;
    by_k.push_back(std::move(communities));
  }
  // Trim trailing empty levels so max_k reflects the last populated k.
  while (!by_k.empty() && by_k.back().empty()) by_k.pop_back();
  return result_from_node_sets(options.min_k, std::move(by_k));
}

// Adopts a sweep-shaped {cpm, tree} pair into a Result, honoring build_tree.
template <typename SweepShaped>
Result adopt_sweep_result(const Options& options, SweepShaped shaped,
                          Timer& total) {
  Result result;
  result.cpm = std::move(shaped.cpm);
  result.timings.percolate_seconds = total.lap();
  if (options.build_tree && result.cpm.max_k >= result.cpm.min_k) {
    // The engine built the tree in the same pass; adopt it.
    result.tree = std::move(shaped.tree);
    result.has_tree = true;
  }
  result.timings.total_seconds = total.seconds();
  return result;
}

// ------------------------------------------------- registry run hooks

Result run_reference_full(const Options& options, const Graph& g) {
  KCC_SPAN("cpm_engine/reference");
  Timer total;
  Result result;
  {
    obs::StageScope stage("percolate");
    result.cpm = collect_per_k(options, [&](std::size_t k) {
      return reference_k_clique_communities(g, k);
    });
  }
  result.timings.percolate_seconds = total.lap();
  if (options.build_tree && result.cpm.max_k >= result.cpm.min_k) {
    obs::StageScope stage("tree");
    result.tree = CommunityTree::build(result.cpm);
    result.has_tree = true;
    result.timings.tree_seconds = total.lap();
  }
  result.timings.total_seconds = total.seconds();
  return result;
}

Result run_sweep_cliques(const Options& options, const Graph& g,
                         std::vector<NodeSet> cliques) {
  KCC_SPAN("cpm_engine/sweep");
  Timer total;
  // The sweep is the one engine that honors the pair-store budget.
  CpmOptions sweep_options = options.cpm_options();
  sweep_options.memory_budget = options.memory_budget;
  sweep_options.spill_dir = options.spill_dir;
  SweepCpmResult sweep = [&] {
    obs::StageScope stage("percolate");
    return run_sweep_cpm_on_cliques(g, std::move(cliques), sweep_options);
  }();
  return adopt_sweep_result(options, std::move(sweep), total);
}

Result run_per_k_cliques(const Options& options, const Graph& g,
                         std::vector<NodeSet> cliques) {
  KCC_SPAN("cpm_engine/per_k");
  Timer total;
  Result result;
  {
    obs::StageScope stage("percolate");
    result.cpm =
        run_cpm_on_cliques(g, std::move(cliques), options.cpm_options());
  }
  result.timings.percolate_seconds = total.lap();
  if (options.build_tree && result.cpm.max_k >= result.cpm.min_k) {
    obs::StageScope stage("tree");
    result.tree = CommunityTree::build(result.cpm);
    result.has_tree = true;
    result.timings.tree_seconds = total.lap();
  }
  result.timings.total_seconds = total.seconds();
  return result;
}

Result run_almost_cliques(const Options& options, const Graph& g,
                          std::vector<NodeSet> cliques) {
  KCC_SPAN("cpm_engine/almost_exact");
  Timer total;
  AlmostCpmResult almost = [&] {
    obs::StageScope stage("percolate");
    return run_almost_cpm_on_cliques(g, std::move(cliques),
                                     options.cpm_options());
  }();
  return adopt_sweep_result(options, std::move(almost), total);
}

std::vector<EngineInfo>& mutable_registry() {
  static std::vector<EngineInfo> registry = [] {
    std::vector<EngineInfo> built_in;
    {
      EngineInfo sweep;
      sweep.name = "sweep";
      sweep.summary =
          "single descending-k union-find sweep over overlap pairs born "
          "into per-overlap buckets; tree in the same pass; honors "
          "--memory-budget spill-to-disk (default)";
      sweep.caps.supports_memory_budget = true;
      sweep.run_on_cliques = &run_sweep_cliques;
      built_in.push_back(std::move(sweep));
    }
    {
      EngineInfo per_k;
      per_k.name = "per_k";
      per_k.summary =
          "one independent percolation per k over the shared overlap list "
          "(the original LP-CPM structure; reference oracle)";
      per_k.run_on_cliques = &run_per_k_cliques;
      built_in.push_back(std::move(per_k));
    }
    {
      EngineInfo incremental;
      incremental.name = "incremental";
      incremental.summary =
          "live clique/overlap state patched under edge batches, "
          "materialized through the sweep tail; exact, lexicographic "
          "clique order";
      incremental.caps.canonical_clique_order = true;
      incremental.run = &run_incremental_full;
      incremental.run_on_cliques = &run_incremental_on_cliques;
      built_in.push_back(std::move(incremental));
    }
    {
      EngineInfo almost;
      almost.name = "almost_exact";
      almost.summary =
          "Baudin et al. bounded-memory percolation over per-node community "
          "candidates; no overlap join, output approximate (F1-gated)";
      almost.caps.exact = false;
      almost.run_on_cliques = &run_almost_cliques;
      built_in.push_back(std::move(almost));
    }
    {
      EngineInfo reference;
      reference.name = "reference";
      reference.summary =
          "literal k-clique-graph definition; exponential, validation on "
          "small graphs only";
      reference.caps.supports_run_on_cliques = false;
      reference.caps.exponential = true;
      reference.run = &run_reference_full;
      built_in.push_back(std::move(reference));
    }
    return built_in;
  }();
  return registry;
}

// Fails fast on a spill directory that would only explode at the first
// spill deep inside the sweep.
void validate_spill_dir(const std::string& spill_dir) {
  if (spill_dir.empty()) return;
  std::error_code ec;
  const std::filesystem::path dir(spill_dir);
  if (!std::filesystem::is_directory(dir, ec)) {
    throw Error("cpm::Engine: spill_dir '" + spill_dir +
                "' does not exist or is not a directory");
  }
  if (::access(spill_dir.c_str(), W_OK | X_OK) != 0) {
    throw Error("cpm::Engine: spill_dir '" + spill_dir +
                "' is not writable");
  }
}

}  // namespace

const char* exactness_name(Exactness exactness) {
  switch (exactness) {
    case Exactness::kExact:
      return "exact";
    case Exactness::kAlmostExact:
      return "almost_exact";
  }
  return "?";
}

const std::vector<EngineInfo>& engine_registry() { return mutable_registry(); }

const EngineInfo* find_engine(const std::string& name) {
  for (const EngineInfo& info : engine_registry()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

const EngineInfo& engine_info(const std::string& name) {
  if (const EngineInfo* info = find_engine(name)) return *info;
  throw Error("unknown engine '" + name + "' (" + engine_names_joined() +
              ")");
}

void register_engine(EngineInfo info) {
  require(!info.name.empty(), "register_engine: name must be non-empty");
  require(find_engine(info.name) == nullptr,
          "register_engine: duplicate engine name '", info.name, "'");
  require(info.run != nullptr || info.run_on_cliques != nullptr,
          "register_engine: engine '", info.name,
          "' needs at least one run hook");
  mutable_registry().push_back(std::move(info));
}

std::string engine_names_joined(char sep) {
  std::string joined;
  for (const EngineInfo& info : engine_registry()) {
    if (!joined.empty()) joined.push_back(sep);
    joined += info.name;
  }
  return joined;
}

CpmOptions Options::cpm_options() const {
  CpmOptions legacy;
  legacy.min_k = min_k;
  legacy.max_k = max_k;
  legacy.threads = threads;
  return legacy;
}

Engine::Engine(Options options)
    : options_(std::move(options)), info_(&engine_info(options_.engine)) {
  require(options_.min_k >= 2, "cpm::Engine: min_k must be >= 2");
  require(options_.min_clique_size >= 2,
          "cpm::Engine: min_clique_size must be >= 2");
  // A budget the sweep would reject must fail here, not after the whole
  // clique enumeration has run.
  require(!info_->caps.supports_memory_budget || options_.memory_budget == 0 ||
              options_.memory_budget >= sweep_min_memory_budget(),
          "cpm::Engine: --memory-budget ", options_.memory_budget,
          " is smaller than the spill chunk (", sweep_min_memory_budget(),
          " bytes); raise the budget or use 0 for unlimited");
}

Result Engine::run(const Graph& g) const {
  if (info_->caps.supports_memory_budget) {
    validate_spill_dir(options_.spill_dir);
  }
  Result result;
  if (info_->run != nullptr) {
    result = info_->run(options_, g);
  } else {
    // Generic path: shared clique enumeration feeding run_on_cliques.
    Timer cliques_timer;
    std::vector<NodeSet> cliques;
    {
      KCC_SPAN("cpm_engine/cliques");
      obs::StageScope stage("cliques");
      ThreadPool pool(options_.threads);
      clique::Options copt;
      copt.min_size = options_.min_clique_size;
      copt.backend = options_.clique_backend;
      copt.bitset_max_universe = options_.bitset_max_universe;
      cliques = clique::Enumerator(g, copt).collect(pool);
    }
    const double cliques_seconds = cliques_timer.seconds();
    result = run_on_cliques(g, std::move(cliques));
    result.timings.cliques_seconds = cliques_seconds;
    result.timings.total_seconds += cliques_seconds;
  }
  result.engine_name = info_->name;
  result.exactness =
      info_->caps.exact ? Exactness::kExact : Exactness::kAlmostExact;
  obs::annotate_run("cpm_engine", result.engine_name);
  obs::annotate_run("cpm_exactness", exactness_name(result.exactness));
  return result;
}

Result Engine::run_on_cliques(const Graph& g,
                              std::vector<NodeSet> cliques) const {
  require(info_->caps.supports_run_on_cliques && info_->run_on_cliques,
          "cpm::Engine: the ", info_->name,
          " engine enumerates k-cliques itself; use run(g)");
  if (info_->caps.supports_memory_budget) {
    validate_spill_dir(options_.spill_dir);
  }
  Result result = info_->run_on_cliques(options_, g, std::move(cliques));
  result.engine_name = info_->name;
  result.exactness =
      info_->caps.exact ? Exactness::kExact : Exactness::kAlmostExact;
  obs::annotate_run("cpm_engine", result.engine_name);
  obs::annotate_run("cpm_exactness", exactness_name(result.exactness));
  return result;
}

Result Engine::run_weighted(const Graph& g, const EdgeWeights& weights) const {
  KCC_SPAN("cpm_engine/weighted");
  Timer total;
  Result result;
  result.engine_name = info_->name;
  result.exactness =
      info_->caps.exact ? Exactness::kExact : Exactness::kAlmostExact;
  obs::StageScope stage("percolate");
  result.cpm = collect_per_k(options_, [&](std::size_t k) {
    WeightedCpmOptions weighted;
    weighted.k = k;
    weighted.intensity_threshold = options_.intensity_threshold;
    weighted.max_cliques = options_.max_weighted_cliques;
    return weighted_k_clique_communities(g, weights, weighted);
  });
  result.timings.percolate_seconds = total.lap();
  result.timings.total_seconds = total.seconds();
  // Intensity filtering can break the nesting theorem, so has_tree stays
  // false regardless of build_tree.
  return result;
}

std::string canonical_text(const Result& result,
                           const CanonicalOptions& options) {
  std::ostringstream out;
  const CpmResult& cpm = result.cpm;
  out << "exactness " << exactness_name(result.exactness) << '\n';
  out << "k " << cpm.min_k << ' ' << cpm.max_k << '\n';
  if (options.include_cliques) {
    out << "cliques " << cpm.cliques.size() << '\n';
    for (CliqueId c = 0; c < cpm.cliques.size(); ++c) {
      out << "q " << c;
      for (NodeId v : cpm.cliques[c]) out << ' ' << v;
      out << '\n';
    }
  }
  for (const CommunitySet& set : cpm.by_k) {
    out << "level " << set.k << ' ' << set.count() << '\n';
    for (const Community& c : set.communities) {
      out << "m " << c.id << " n";
      for (NodeId v : c.nodes) out << ' ' << v;
      if (options.include_clique_ids) {
        out << " c";
        for (CliqueId q : c.clique_ids) out << ' ' << q;
      }
      out << '\n';
    }
    if (options.include_clique_ids) {
      out << "map";
      for (CommunityId id : set.community_of_clique) {
        if (id == CommunitySet::kNoCommunity) {
          out << " -";
        } else {
          out << ' ' << id;
        }
      }
      out << '\n';
    }
  }
  if (options.include_tree) {
    out << "tree " << (result.has_tree ? result.tree.nodes().size() : 0)
        << '\n';
    if (result.has_tree) {
      for (std::size_t i = 0; i < result.tree.nodes().size(); ++i) {
        const TreeNode& node = result.tree.nodes()[i];
        out << "t " << i << " k=" << node.k << " id=" << node.community_id
            << " size=" << node.size << " parent=" << node.parent
            << " main=" << (node.is_main ? 1 : 0);
        out << " ch";
        for (int child : node.children) out << ' ' << child;
        out << '\n';
      }
    }
  }
  return out.str();
}

std::uint64_t canonical_digest(const Result& result,
                               const CanonicalOptions& options) {
  const std::string text = canonical_text(result, options);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char ch : text) {
    hash ^= ch;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void canonicalise_clique_order(Result& result) {
  CpmResult& cpm = result.cpm;
  const std::size_t n = cpm.cliques.size();
  std::vector<CliqueId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<CliqueId>(i);
  std::sort(order.begin(), order.end(), [&](CliqueId a, CliqueId b) {
    return cpm.cliques[a] < cpm.cliques[b];
  });
  std::vector<CliqueId> new_id(n);
  for (std::size_t i = 0; i < n; ++i) {
    new_id[order[i]] = static_cast<CliqueId>(i);
  }
  std::vector<NodeSet> table(n);
  for (std::size_t i = 0; i < n; ++i) {
    table[i] = std::move(cpm.cliques[order[i]]);
  }
  cpm.cliques = std::move(table);
  for (CommunitySet& set : cpm.by_k) {
    for (Community& community : set.communities) {
      for (CliqueId& c : community.clique_ids) c = new_id[c];
      // Every engine emits clique ids ascending; restore that after remap.
      std::sort(community.clique_ids.begin(), community.clique_ids.end());
    }
    // Community order is (size desc, nodes lex) — clique-id independent —
    // so only the clique->community map needs permuting.
    if (!set.community_of_clique.empty()) {
      std::vector<CommunityId> map(n, CommunitySet::kNoCommunity);
      for (std::size_t c = 0; c < set.community_of_clique.size() && c < n;
           ++c) {
        map[new_id[c]] = set.community_of_clique[c];
      }
      set.community_of_clique = std::move(map);
    }
  }
}

const std::vector<std::string>& engine_cli_flags() {
  static const std::vector<std::string> flags{
      "k-min", "k-max", "engine", "threads", "memory-budget",
      "clique-backend"};
  return flags;
}

Options options_from_cli(const CliArgs& args, Options defaults) {
  Options options = std::move(defaults);
  options.min_k = static_cast<std::size_t>(
      args.get_int("k-min", static_cast<std::int64_t>(options.min_k)));
  options.max_k = static_cast<std::size_t>(
      args.get_int("k-max", static_cast<std::int64_t>(options.max_k)));
  options.threads = static_cast<std::size_t>(
      args.get_int("threads", static_cast<std::int64_t>(options.threads)));
  if (args.has("engine")) {
    options.engine = args.get_string("engine", "sweep");
    engine_info(options.engine);  // unknown names fail at flag-parse time
  }
  if (args.has("memory-budget")) {
    options.memory_budget =
        parse_memory_budget(args.get_string("memory-budget", "0"));
  }
  if (args.has("clique-backend")) {
    options.clique_backend =
        clique::parse_backend(args.get_string("clique-backend", "auto"));
  }
  return options;
}

}  // namespace kcc::cpm
