// kcc — command-line front end for the library.
//
// Subcommands:
//   kcc generate --out-dir=DIR [--scale=test|bench|paper] [--seed=N]
//       Generate a synthetic AS ecosystem and write topology.txt, ixps.txt,
//       countries.txt, geo.txt into DIR.
//   kcc cpm --edges=FILE [--k-min=2] [--k-max=0] [--engine=sweep]
//       [--threads=0] [--out=FILE]
//       Extract k-clique communities from an edge list; print a summary and
//       optionally save the result (io/result_io format).
//   kcc tree --edges=FILE [--dot=FILE] [--min-k-shown=6]
//       Build and print the community tree (returned by the engine with the
//       communities); optionally export DOT.
//   kcc analyze --edges=FILE --ixps=FILE --countries=FILE --geo=FILE
//       Full paper analysis over on-disk datasets.
//   kcc info --edges=FILE
//       Topology statistics (degrees, clustering, components, cliques).
//   kcc serve --snapshot=FILE --socket=PATH
//       mmap a community snapshot (written by cpm --snapshot-out) and answer
//       concurrent membership/community/ancestry/LCA/overlap queries over a
//       unix-domain socket until SIGINT/SIGTERM or a remote shutdown.
//       SIGHUP (or the remote reload op) remaps the snapshot path in place:
//       in-flight queries finish on the old mapping, new ones see the new.
//   kcc query --socket=PATH --op=OP [query args]
//       One-shot client for a running serve daemon.
//   kcc update --deltas=FILE --snapshot-out=FILE [--edges=FILE]
//       Replay an edge-delta stream (docs/FORMATS.md#delta-streams) through
//       the incremental CPM engine and write the refreshed snapshot
//       atomically (tmp + rename) — the file a running `kcc serve` daemon
//       can then reload without restarting.
//   kcc <command> --help
//       Print that subcommand's usage and exit 0.

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>

#include <sstream>
#include <string_view>

#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/table.h"
#include "common/timer.h"
#include "cpm/community_tree.h"
#include "cpm/engine.h"
#include "graph/clustering.h"
#include "graph/degree_distribution.h"
#include "graph/graph_algorithms.h"
#include "io/dataset_io.h"
#include "io/delta_stream.h"
#include "io/dot_export.h"
#include "io/edge_list.h"
#include "io/result_io.h"
#include "io/snapshot.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using namespace kcc;

int cmd_generate(const CliArgs& args);
int cmd_cpm(const CliArgs& args);
int cmd_tree(const CliArgs& args);
int cmd_analyze(const CliArgs& args);
int cmd_info(const CliArgs& args);
int cmd_serve(const CliArgs& args);
int cmd_query(const CliArgs& args);
int cmd_update(const CliArgs& args);

// One entry per subcommand, in the order `kcc --help` lists them;
// `kcc <command> --help` prints just that entry's synopsis.
struct Command {
  const char* name;
  int (*run)(const CliArgs&);
  const char* synopsis;
};

constexpr Command kCommands[] = {
    {"generate", cmd_generate,
     "  generate --out-dir=DIR [--scale=test|bench|paper] [--seed=N]\n"},
    {"cpm", cmd_cpm,
     "  cpm      --edges=FILE [--k-min=N] [--k-max=N] [--engine=ENGINE]\n"
     "           [--threads=N] [--out=FILE] [--snapshot-out=FILE]\n"},
    {"tree", cmd_tree,
     "  tree     --edges=FILE [--dot=FILE] [--min-k-shown=N] "
     "[--engine=ENGINE]\n"},
    {"analyze", cmd_analyze,
     "  analyze  --edges=FILE --ixps=FILE --countries=FILE --geo=FILE\n"
     "           [--threads=N] [--engine=ENGINE]\n"},
    {"info", cmd_info, "  info     --edges=FILE\n"},
    {"serve", cmd_serve,
     "  serve    --snapshot=FILE --socket=PATH [--no-remote-shutdown]\n"
     "           [--no-remote-reload]\n"},
    {"query", cmd_query,
     "  query    --socket=PATH --op=info|membership|community|ancestry|\n"
     "           lca|overlap|reload|shutdown [--node=N] [--k=N] [--id=N]\n"
     "           [--k2=N] [--id2=N] [--u=N] [--v=N] [--timeout=SECONDS]\n"},
    {"update", cmd_update,
     "  update   --deltas=FILE --snapshot-out=FILE [--edges=FILE]\n"
     "           [--k-min=N] [--k-max=N] [--threads=N]\n"},
};

const Command* find_command(const std::string& name) {
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

/// `kcc <command> --help`: that command's synopsis on stdout, exit 0.
int command_usage(const Command& command) {
  std::cout << "usage: kcc " << command.name << " [flags]\n"
            << command.synopsis
            << "engine, serving and observability flags: kcc --help\n";
  return 0;
}

int usage(std::ostream& out, int rc) {
  out << "usage: kcc <command> [flags]\n";
  for (const Command& command : kCommands) out << command.synopsis;
  out <<
      "  help | --help\n"
      "\n"
      "engine selection (cpm/tree/analyze):\n"
      "  --engine=" << cpm::engine_names_joined() << "\n";
  // The per-engine help lines come from the registry, so a newly
  // registered backend documents itself.
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    out << "           " << info.name << ": " << info.summary;
    if (!info.caps.exact) out << " [approximate]";
    out << "\n";
  }
  out <<
      "  --k-min=N/--k-max=N bound the community order (aliases\n"
      "           --min-k/--max-k are accepted for compatibility)\n"
      "  --clique-backend=auto|sparse|bitset\n"
      "           maximal-clique kernel: bitset packs each degeneracy\n"
      "           subproblem into 64-bit rows (word-parallel, the fast\n"
      "           path); sparse is the sorted-merge kernel; auto (default)\n"
      "           picks per graph — output is identical either way\n"
      "\n"
      "serving (docs/SERVING.md):\n"
      "  --snapshot-out=FILE\n"
      "           cpm only: also write the binary community snapshot that\n"
      "           `kcc serve` mmaps (format spec in docs/FORMATS.md)\n"
      "  --snapshot=FILE --socket=PATH\n"
      "           serve: the snapshot to serve and the unix socket to bind\n"
      "  --no-remote-shutdown\n"
      "           serve: refuse the client-initiated shutdown op\n"
      "  --no-remote-reload\n"
      "           serve: refuse the client-initiated reload op (SIGHUP\n"
      "           reloads keep working)\n"
      "  --op=... --node/--k/--id/--k2/--id2/--u/--v, --timeout=SECONDS\n"
      "           query: operation and its arguments (see docs/SERVING.md)\n"
      "  --deltas=FILE\n"
      "           update: the edge-delta stream to replay; its 'edge' lines\n"
      "           seed the base graph unless --edges provides one instead\n"
      "           (grammar in docs/FORMATS.md#delta-streams)\n"
      "\n"
      "observability flags (accepted by every command):\n"
      "  --log-level=off|error|warn|info|debug|trace\n"
      "           stderr logging threshold (default off; env KCC_LOG_LEVEL)\n"
      "  --trace-out=FILE\n"
      "           record spans and write Chrome trace_event JSON, viewable\n"
      "           in chrome://tracing or https://ui.perfetto.dev\n"
      "  --metrics-out=FILE\n"
      "           dump the metrics registry on exit (JSON, or Prometheus\n"
      "           text when FILE ends in .prom)\n"
      "  --report-out=FILE\n"
      "           write a versioned run report on exit: build/host manifest,\n"
      "           wall time, CPU time and RSS per stage, metrics snapshot\n"
      "           (schema in docs/OBSERVABILITY.md)\n"
      "  (every FILE above accepts - for stdout)\n"
      "\n"
      "Unknown flags are an error; see docs/OBSERVABILITY.md for the metric\n"
      "catalog.\n";
  return rc;
}

SynthParams scale_params(const std::string& scale) {
  if (scale == "test") return SynthParams::test_scale();
  if (scale == "bench") return SynthParams::bench_scale();
  if (scale == "paper") return SynthParams::paper_scale();
  throw Error("unknown --scale '" + scale + "' (test|bench|paper)");
}

// Shared engine options for cpm/tree/analyze. The legacy spellings
// --min-k/--max-k remain accepted; --k-min/--k-max win when both appear.
// A negative alias wraps to a huge default, which options_from_cli reads
// back as the same negative value and rejects under the canonical name.
cpm::Options cpm_options_from_args(const CliArgs& args) {
  cpm::Options defaults;
  defaults.min_k = static_cast<std::size_t>(args.get_int("min-k", 2));
  defaults.max_k = static_cast<std::size_t>(args.get_int("max-k", 0));
  return cpm::options_from_cli(args, defaults);
}

int cmd_generate(const CliArgs& args) {
  const std::string dir = args.get_string("out-dir", "");
  require(!dir.empty(), "generate: --out-dir is required");
  std::filesystem::create_directories(dir);

  SynthParams params = scale_params(args.get_string("scale", "bench"));
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const AsEcosystem eco = generate_ecosystem(params);

  write_edge_list_file(dir + "/topology.txt", eco.topology);
  {
    std::ofstream out(dir + "/ixps.txt");
    require(out.good(), "generate: cannot write ixps.txt");
    write_ixp_dataset(out, eco.ixps, eco.topology);
  }
  {
    std::ofstream countries(dir + "/countries.txt");
    std::ofstream geo(dir + "/geo.txt");
    require(countries.good() && geo.good(),
            "generate: cannot write geo files");
    write_geo_dataset(countries, geo, eco.geo, eco.topology);
  }
  std::cout << "Wrote " << eco.num_ases() << " ASes / "
            << eco.topology.graph.num_edges() << " links, "
            << eco.ixps.count() << " IXPs, "
            << eco.geo.known_node_count() << " geolocated ASes to " << dir
            << "\n";
  return 0;
}

int cmd_cpm(const CliArgs& args) {
  const std::string edges = args.get_string("edges", "");
  require(!edges.empty(), "cpm: --edges is required");
  // Built first so bad engine options fail before the edge list is read.
  const cpm::Engine engine(cpm_options_from_args(args));
  const LabeledGraph g = [&edges] {
    const obs::StageScope stage("parse");
    return read_edge_list_file(edges);
  }();
  const Timer timer;
  const cpm::Result run = engine.run(g.graph);
  const double seconds = timer.seconds();
  const CpmResult& result = run.cpm;
  std::cout << "Graph: " << g.graph.num_nodes() << " nodes, "
            << g.graph.num_edges() << " edges\n";
  std::cout << "Maximal cliques: " << result.cliques.size() << "\n";
  std::cout << "Communities: " << result.total_communities() << " over k in ["
            << result.min_k << ", " << result.max_k << "] ("
            << run.engine_name << " engine, "
            << cpm::exactness_name(run.exactness) << ", "
            << fixed(seconds, 2) << " s)\n";
  TextTable table({"k", "communities", "largest"});
  for (std::size_t k = result.min_k; k <= result.max_k; ++k) {
    std::size_t largest = 0;
    for (const Community& c : result.at(k).communities) {
      largest = std::max(largest, c.size());
    }
    table.add(k, result.at(k).count(), largest);
  }
  std::cout << table;
  if (args.has("out")) {
    const std::string out = args.get_string("out", "");
    write_cpm_result_file(out, result);
    std::cout << "Result saved to " << out << "\n";
  }
  if (args.has("snapshot-out")) {
    const std::string out = args.get_string("snapshot-out", "");
    obs::write_artifact(out, "snapshot",
                        [&run](std::ostream& stream) {
                          snapshot::write_snapshot(stream, run);
                        },
                        /*binary=*/true);
    if (out != "-") std::cout << "Snapshot saved to " << out << "\n";
  }
  return 0;
}

serve::Server* g_server = nullptr;

extern "C" void kcc_serve_signal(int) {
  // Async-signal-safe: one atomic store; Server::wait polls the flag and
  // performs the actual teardown on the main thread.
  if (g_server != nullptr) g_server->request_shutdown();
}

extern "C" void kcc_serve_sighup(int) {
  // Async-signal-safe: one atomic store; Server::wait performs the snapshot
  // remap on its next poll tick.
  if (g_server != nullptr) g_server->request_reload();
}

int cmd_serve(const CliArgs& args) {
  const std::string snapshot = args.get_string("snapshot", "");
  const std::string socket = args.get_string("socket", "");
  require(!snapshot.empty(), "serve: --snapshot is required");
  require(!socket.empty(), "serve: --socket is required");
  serve::ServerOptions options;
  options.socket_path = socket;
  options.allow_remote_shutdown = !args.get_bool("no-remote-shutdown", false);
  options.allow_remote_reload = !args.get_bool("no-remote-reload", false);

  serve::Server server(snapshot, options);
  std::cout << "Serving " << server.view().num_communities()
            << " communities (k " << server.view().min_k() << ".."
            << server.view().max_k() << ", engine "
            << server.view().engine_name() << ", "
            << cpm::exactness_name(server.view().exactness()) << ") on "
            << socket << "\n"
            << std::flush;
  g_server = &server;
  std::signal(SIGINT, kcc_serve_signal);
  std::signal(SIGTERM, kcc_serve_signal);
  std::signal(SIGHUP, kcc_serve_sighup);
  server.start();
  server.wait();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGHUP, SIG_DFL);
  g_server = nullptr;
  std::cout << "Shut down cleanly\n";
  return 0;
}

int cmd_query(const CliArgs& args) {
  const std::string socket = args.get_string("socket", "");
  const std::string op = args.get_string("op", "");
  require(!socket.empty(), "query: --socket is required");
  require(!op.empty(), "query: --op is required");
  const double timeout = args.get_double("timeout", 5.0);
  // An id is a wire uint32: reject what a cast would wrap or truncate.
  auto id_or_zero = [&args](const char* flag) {
    const std::int64_t value = args.get_int(flag, 0);
    require(value >= 0 && value <= std::int64_t{UINT32_MAX}, "query: --",
            flag, " must be an integer in [0, 4294967295], got '",
            args.get_string(flag, ""), "'");
    return static_cast<std::uint32_t>(value);
  };
  auto u32 = [&](const char* flag) {
    require(args.has(flag), "query: --", flag, " is required");
    return id_or_zero(flag);
  };
  // Every id given is checked before the client connects.
  for (const char* flag : {"node", "k", "id", "k2", "id2", "u", "v"}) {
    id_or_zero(flag);
  }

  serve::Client client(socket, timeout);
  if (op == "info") {
    const serve::ServerInfo info = client.info();
    std::cout << "engine " << info.engine << ", k in [" << info.min_k << ", "
              << info.max_k << "], " << info.num_nodes << " nodes, "
              << info.num_communities << " communities, tree "
              << (info.has_tree ? "yes" : "no") << "\n";
  } else if (op == "membership") {
    const auto memberships =
        client.membership(u32("node"), id_or_zero("k"));
    for (const serve::Membership& m : memberships) {
      std::cout << "k=" << m.k << " community=" << m.id << "\n";
    }
    std::cout << memberships.size() << " memberships\n";
  } else if (op == "community") {
    const auto nodes = client.community(u32("k"), u32("id"));
    for (std::uint32_t v : nodes) std::cout << v << "\n";
    std::cout << nodes.size() << " nodes\n";
  } else if (op == "ancestry") {
    for (const serve::AncestryEntry& entry :
         client.ancestry(u32("k"), u32("id"))) {
      std::cout << "k=" << entry.k << " community=" << entry.id << " size="
                << entry.size << "\n";
    }
  } else if (op == "lca") {
    const auto lca = client.lca(u32("k"), u32("id"), u32("k2"), u32("id2"));
    if (lca.has_value()) {
      std::cout << "lca k=" << lca->k << " community=" << lca->id << "\n";
    } else {
      std::cout << "no common ancestor\n";
    }
  } else if (op == "overlap") {
    const serve::Overlap overlap = client.overlap(u32("u"), u32("v"));
    if (overlap.max_k == 0) {
      std::cout << "no shared community\n";
    } else {
      std::cout << "max_k=" << overlap.max_k << " community="
                << overlap.community << " count=" << overlap.count << "\n";
    }
  } else if (op == "reload") {
    const serve::Status status = client.request_reload();
    require(status != serve::Status::kUnsupported,
            "query: server refused reload (--no-remote-reload?)");
    require(status == serve::Status::kOk,
            "query: reload failed — the daemon keeps serving the previous "
            "snapshot (check its log)");
    std::cout << "snapshot reloaded\n";
  } else if (op == "shutdown") {
    const serve::Status status = client.request_shutdown();
    require(status == serve::Status::kOk,
            "query: server refused shutdown (--no-remote-shutdown?)");
    std::cout << "server shutting down\n";
  } else {
    throw Error("query: unknown --op '" + op + "'");
  }
  return 0;
}

int cmd_update(const CliArgs& args) {
  const std::string deltas_path = args.get_string("deltas", "");
  const std::string out = args.get_string("snapshot-out", "");
  require(!deltas_path.empty(), "update: --deltas is required");
  require(!out.empty(), "update: --snapshot-out is required");
  require(out != "-", "update: --snapshot-out must be a file path (the "
                      "write is tmp + rename for atomic daemon reloads)");

  std::ifstream in(deltas_path);
  require(in.good(), "update: cannot read '", deltas_path, "'");
  std::ostringstream text;
  text << in.rdbuf();
  const DeltaStream stream = parse_delta_stream(text.str());

  Graph base;
  if (args.has("edges")) {
    require(stream.edges.empty(),
            "update: --edges given but '", deltas_path,
            "' carries its own 'edge' lines — use one base, not both");
    base = read_edge_list_file(args.get_string("edges", "")).graph;
  } else {
    base = stream.base_graph();
  }

  Timer timer;
  cpm::IncrementalCpm state(base, cpm_options_from_args(args));
  std::size_t ops = 0;
  for (const cpm::EdgeBatch& batch : stream.batches) {
    state.apply(batch);
    ops += batch.size();
  }
  const cpm::Result run = state.result();

  {
    // tmp + rename so a serving daemon reloading the path never maps a
    // half-written file.
    const obs::StageScope stage("snapshot_write");
    const std::string tmp = out + ".tmp";
    snapshot::write_snapshot_file(tmp, run,
                                  snapshot::default_manifest_json("kcc", run));
    std::filesystem::rename(tmp, out);
  }

  std::cout << "Replayed " << stream.batches.size() << " batches (" << ops
            << " ops) over " << base.num_nodes() << " nodes: "
            << state.num_edges() << " edges, " << state.num_cliques()
            << " maximal cliques, " << run.cpm.total_communities()
            << " communities over k in [" << run.cpm.min_k << ", "
            << run.cpm.max_k << "] (" << fixed(timer.seconds(), 2) << " s)\n";
  std::cout << "Snapshot saved to " << out << "\n";
  return 0;
}

int cmd_tree(const CliArgs& args) {
  const std::string edges = args.get_string("edges", "");
  require(!edges.empty(), "tree: --edges is required");
  // Built first so bad engine options fail before the edge list is read.
  const cpm::Engine engine(cpm_options_from_args(args));
  const LabeledGraph g = read_edge_list_file(edges);
  const cpm::Result run = engine.run(g.graph);
  require(run.has_tree, "tree: the graph has no communities to arrange");
  const CommunityTree& tree = run.tree;
  std::cout << "Community tree: " << tree.nodes().size() << " communities ("
            << tree.main_count() << " main, " << tree.parallel_count()
            << " parallel), k in [" << tree.min_k() << ", " << tree.max_k()
            << "]\n";
  for (const TreeLevelStats& stats : tree_level_stats(tree)) {
    std::cout << "  k=" << stats.k << ": main size " << stats.main_size
              << ", " << stats.parallel_count << " parallel\n";
  }
  if (args.has("dot")) {
    const std::string path = args.get_string("dot", "tree.dot");
    const auto min_shown =
        static_cast<std::size_t>(args.get_int("min-k-shown", 6));
    write_tree_dot_file(path, tree, min_shown);
    std::cout << "DOT written to " << path << "\n";
  }
  return 0;
}

int cmd_analyze(const CliArgs& args) {
  for (const char* flag : {"edges", "ixps", "countries", "geo"}) {
    require(args.has(flag),
            "analyze: --", flag, " is required");
  }
  AsEcosystem eco;
  eco.topology = read_edge_list_file(args.get_string("edges", ""));
  eco.ixps = read_ixp_dataset_file(args.get_string("ixps", ""), eco.topology);
  eco.geo = read_geo_dataset_files(args.get_string("countries", ""),
                                   args.get_string("geo", ""), eco.topology);
  eco.roles.assign(eco.topology.graph.num_nodes(), AsRole::kStub);

  const PipelineResult result =
      analyze_ecosystem(std::move(eco), cpm_options_from_args(args));
  print_ecosystem_summary(std::cout, result.eco);
  std::cout << "\n";
  print_level_table(std::cout, result);
  std::cout << "\n";
  print_band_summary(std::cout, result);
  std::cout << "\n";
  print_overlap_summary(std::cout, result);
  return 0;
}

int cmd_info(const CliArgs& args) {
  const std::string edges = args.get_string("edges", "");
  require(!edges.empty(), "info: --edges is required");
  const LabeledGraph g = read_edge_list_file(edges);
  const DegreeStats degrees = degree_stats(g.graph);
  const ComponentLabeling components = connected_components(g.graph);
  TextTable table({"metric", "value"});
  table.add("nodes", g.graph.num_nodes());
  table.add("edges", g.graph.num_edges());
  table.add("density", fixed(g.graph.density(), 6));
  table.add("min degree", degrees.min);
  table.add("median degree", fixed(degrees.median, 1));
  table.add("mean degree", fixed(degrees.mean, 2));
  table.add("max degree", degrees.max);
  table.add("connected components", components.count);
  table.add("triangles", triangle_count(g.graph));
  table.add("average clustering", fixed(average_clustering(g.graph), 4));
  table.add("transitivity", fixed(transitivity(g.graph), 4));
  try {
    const PowerLawFit fit = fit_power_law(g.graph, 3);
    table.add("power-law alpha (x_min=3)", fixed(fit.alpha, 2));
  } catch (const Error&) {
    // Degenerate degree sequence: skip the fit row.
  }
  std::cout << table;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage(std::cerr, 2);
    const std::string command = argv[1];
    if (command == "help" || command == "--help") {
      return usage(std::cout, 0);
    }
    const Command* known_command = find_command(command);
    if (known_command != nullptr) {
      for (int i = 2; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--help") {
          return command_usage(*known_command);
        }
      }
    }
    // CliArgs rejects flags outside this list, so typos (--thread=8) fail
    // loudly instead of silently running with defaults.
    std::vector<std::string> known{
        "out-dir", "scale", "seed", "edges", "min-k", "max-k", "out", "dot",
        "min-k-shown", "ixps", "countries", "geo", "log-level", "trace-out",
        "metrics-out", "report-out", "snapshot-out", "snapshot", "socket",
        "no-remote-shutdown", "no-remote-reload", "op", "node", "k", "id",
        "k2", "id2", "u", "v", "timeout", "deltas"};
    for (const std::string& flag : cpm::engine_cli_flags()) {
      known.push_back(flag);
    }
    const CliArgs args(argc - 1, argv + 1, known);
    obs::ObsOptions obs_options;
    obs_options.log_level = args.get_string("log-level", "");
    obs_options.trace_out = args.get_string("trace-out", "");
    obs_options.metrics_out = args.get_string("metrics-out", "");
    obs_options.report_out = args.get_string("report-out", "");
    obs_options.tool = "kcc";
    obs::configure(obs_options);

    if (known_command == nullptr) {
      std::cerr << "unknown command '" << command << "'\n";
      return usage(std::cerr, 2);
    }
    const int rc = known_command->run(args);
    obs::finish(obs_options);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
