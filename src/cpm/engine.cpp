#include "cpm/engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "cpm/almost_cpm.h"
#include "cpm/reference_cpm.h"
#include "cpm/sweep_cpm.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace kcc::cpm {
namespace {

// The shared first stage of the engines that percolate a maximal-clique
// table: enumeration at the configured floor and backend.
std::vector<NodeSet> enumerate_cliques(const Options& options,
                                       const Graph& g) {
  KCC_SPAN("cpm_engine/cliques");
  obs::StageScope stage("cliques");
  ThreadPool pool(options.threads);
  clique::Options copt;
  copt.min_size = options.min_clique_size;
  copt.backend = options.clique_backend;
  copt.bitset_max_universe = options.bitset_max_universe;
  return clique::Enumerator(g, copt).collect(pool);
}

// Adopts a sweep-shaped {cpm, tree} pair into a Result, honoring build_tree.
template <typename SweepShaped>
Result adopt_sweep_result(const Options& options, SweepShaped shaped) {
  Result result;
  result.cpm = std::move(shaped.cpm);
  if (options.build_tree && result.cpm.max_k >= result.cpm.min_k) {
    result.tree = std::move(shaped.tree);
    result.has_tree = true;
  }
  return result;
}

// The post-hoc tree step of the engines whose percolation builds none.
void build_tree_post_hoc(const Options& options, Result& result) {
  if (!options.build_tree || result.cpm.max_k < result.cpm.min_k) return;
  obs::StageScope stage("tree");
  result.tree = CommunityTree::build(result.cpm);
  result.has_tree = true;
}

// ------------------------------------------------- registry run hooks

// The literal definition, one k at a time: ascending from min_k until the
// configured max_k (0 = unbounded) or the first empty k, whichever comes
// first. No later k can be non-empty: every (k+1)-clique contains
// k-cliques, so an empty level stays empty at every higher k. Stopping
// there keeps a huge max_k from walking billions of empty levels. The
// communities carry no clique ids; tree assembly falls back to
// node-containment parent search.
Result run_reference(const Options& options, const Graph& g) {
  KCC_SPAN("cpm_engine/reference");
  Result result;
  {
    obs::StageScope stage("percolate");
    CpmResult& cpm = result.cpm;
    cpm.min_k = options.min_k;
    for (std::size_t k = options.min_k;
         options.max_k == 0 || k <= options.max_k; ++k) {
      std::vector<NodeSet> nodes = reference_k_clique_communities(g, k);
      if (nodes.empty()) break;
      // Re-establish the canonical order (size desc, nodes lex) shared by
      // all engines; the oracle lists communities lexicographically.
      std::sort(nodes.begin(), nodes.end(),
                [](const NodeSet& a, const NodeSet& b) {
                  if (a.size() != b.size()) return a.size() > b.size();
                  return a < b;
                });
      CommunitySet set;
      set.k = k;
      for (CommunityId id = 0; id < nodes.size(); ++id) {
        Community c;
        c.k = k;
        c.id = id;
        c.nodes = std::move(nodes[id]);
        set.communities.push_back(std::move(c));
      }
      cpm.by_k.push_back(std::move(set));
    }
    cpm.max_k = cpm.min_k + cpm.by_k.size() - 1;  // min_k - 1 when empty
  }
  build_tree_post_hoc(options, result);
  return result;
}

Result run_sweep(const Options& options, const Graph& g) {
  std::vector<NodeSet> cliques = enumerate_cliques(options, g);
  KCC_SPAN("cpm_engine/sweep");
  return adopt_sweep_result(
      options, run_sweep_cpm_on_cliques(g, std::move(cliques),
                                        options.cpm_options(),
                                        options.build_tree));
}

Result run_per_k(const Options& options, const Graph& g) {
  std::vector<NodeSet> cliques = enumerate_cliques(options, g);
  KCC_SPAN("cpm_engine/per_k");
  Result result;
  {
    obs::StageScope stage("percolate");
    result.cpm =
        run_cpm_on_cliques(g, std::move(cliques), options.cpm_options());
  }
  build_tree_post_hoc(options, result);
  return result;
}

Result run_almost(const Options& options, const Graph& g) {
  std::vector<NodeSet> cliques = enumerate_cliques(options, g);
  KCC_SPAN("cpm_engine/almost_exact");
  return adopt_sweep_result(
      options, run_almost_cpm_on_cliques(g, std::move(cliques),
                                         options.cpm_options(),
                                         options.build_tree));
}

}  // namespace

const std::vector<EngineInfo>& engine_registry() {
  static const std::vector<EngineInfo> registry = [] {
    std::vector<EngineInfo> built_in;
    {
      EngineInfo sweep;
      sweep.name = "sweep";
      sweep.summary =
          "single descending-k union-find sweep over overlap pairs born "
          "into per-overlap buckets; tree from the levels (default)";
      sweep.run = &run_sweep;
      built_in.push_back(std::move(sweep));
    }
    {
      EngineInfo per_k;
      per_k.name = "per_k";
      per_k.summary =
          "one independent percolation per k over the shared overlap list "
          "(the original LP-CPM structure; reference oracle)";
      per_k.run = &run_per_k;
      built_in.push_back(std::move(per_k));
    }
    {
      EngineInfo almost;
      almost.name = "almost_exact";
      almost.summary =
          "Baudin et al. bounded-memory percolation over per-node community "
          "candidates; no overlap join, output approximate (F1-gated)";
      almost.caps.exact = false;
      almost.run = &run_almost;
      built_in.push_back(std::move(almost));
    }
    {
      EngineInfo reference;
      reference.name = "reference";
      reference.summary =
          "literal k-clique-graph definition; exponential, validation on "
          "small graphs only";
      reference.caps.exponential = true;
      reference.run = &run_reference;
      built_in.push_back(std::move(reference));
    }
    return built_in;
  }();
  return registry;
}

const char* exactness_name(Exactness exactness) {
  switch (exactness) {
    case Exactness::kExact:
      return "exact";
    case Exactness::kAlmostExact:
      return "almost_exact";
  }
  return "?";
}

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
  // The clique table defines every level, k = 2 included; below the floor
  // it is truncated.
  require(options_.min_clique_size <= options_.min_k,
          "cpm::Engine: min_clique_size ", options_.min_clique_size,
          " must be <= min_k ", options_.min_k);
}

Result Engine::run(const Graph& g) const {
  Result result = info_->run(options_, g);
  result.engine_name = info_->name;
  result.exactness =
      info_->caps.exact ? Exactness::kExact : Exactness::kAlmostExact;
  obs::annotate_run("cpm_engine", result.engine_name);
  obs::annotate_run("cpm_exactness", exactness_name(result.exactness));
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
      // Each clique's community at this level, derived from the clique ids;
      // a result without a clique table prints an empty map.
      out << "map";
      for (CommunityId id : clique_community_map(set, cpm.cliques.size())) {
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
  // Community order is (size desc, nodes lex), independent of clique ids,
  // so the communities keep their ids.
  for (CommunitySet& set : cpm.by_k) {
    for (Community& community : set.communities) {
      for (CliqueId& c : community.clique_ids) c = new_id[c];
      // Every engine emits clique ids ascending; restore that after remap.
      std::sort(community.clique_ids.begin(), community.clique_ids.end());
    }
  }
}

const std::vector<std::string>& engine_cli_flags() {
  static const std::vector<std::string> flags{
      "k-min", "k-max", "engine", "threads", "clique-backend"};
  return flags;
}

Options options_from_cli(const CliArgs& args, Options defaults) {
  Options options = std::move(defaults);
  // A negative count would wrap to a huge std::size_t. A default that
  // already wrapped (a caller's negative alias) reads back negative here
  // and is rejected too.
  const auto count = [&](const char* flag, std::size_t fallback) {
    const std::int64_t value =
        args.get_int(flag, static_cast<std::int64_t>(fallback));
    require(value >= 0, "options_from_cli: --", flag, " must be >= 0, got ",
            value);
    return static_cast<std::size_t>(value);
  };
  options.min_k = count("k-min", options.min_k);
  options.max_k = count("k-max", options.max_k);
  options.threads = count("threads", options.threads);
  if (args.has("engine")) {
    options.engine = args.get_string("engine", "sweep");
    engine_info(options.engine);  // unknown names fail at flag-parse time
  }
  if (args.has("clique-backend")) {
    options.clique_backend =
        clique::parse_backend(args.get_string("clique-backend", "auto"));
  }
  return options;
}

}  // namespace kcc::cpm
