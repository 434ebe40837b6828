#include "check/churn.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <utility>

#include "check/differential.h"
#include "clique/enumerator.h"
#include "common/error.h"
#include "cpm/engine.h"
#include "obs/metrics.h"

namespace kcc::check {
namespace {

using cpm::EdgeBatch;

Edge canon(Edge e) {
  if (e.first > e.second) std::swap(e.first, e.second);
  return e;
}

/// Canonical present-edge set of a TestGraph (the edges build() keeps):
/// normalized, sorted, deduped, loop-free.
std::vector<Edge> canonical_edges(const TestGraph& graph) {
  std::vector<Edge> present;
  present.reserve(graph.edges.size());
  for (const Edge& e : graph.edges) {
    if (e.first == e.second) continue;
    present.push_back(canon(e));
  }
  std::sort(present.begin(), present.end());
  present.erase(std::unique(present.begin(), present.end()), present.end());
  return present;
}

/// Draws one batch of up to `target_ops` updates against the current graph.
/// Removes are sampled without replacement from the present edges and adds
/// are rejection-sampled from the absent pairs, all against the one
/// pre-batch snapshot — so the two sides are disjoint and the batch is
/// valid by construction. May come back short (dense or edgeless graphs),
/// possibly empty.
EdgeBatch make_batch(const TestGraph& graph, Rng& rng,
                     std::size_t target_ops) {
  EdgeBatch batch;
  const std::vector<Edge> present = canonical_edges(graph);
  const std::size_t n = std::max<std::size_t>(graph.num_nodes, 2);
  const std::size_t removes =
      std::min<std::size_t>(rng.next_below(target_ops + 1), present.size());
  batch.remove = rng.sample_without_replacement(present, removes);
  const std::size_t adds = target_ops - removes;
  for (std::size_t i = 0; i < adds; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (u == v) continue;
      const Edge e = canon({u, v});
      if (std::binary_search(present.begin(), present.end(), e)) continue;
      if (std::find(batch.add.begin(), batch.add.end(), e) !=
          batch.add.end()) {
        continue;
      }
      batch.add.push_back(e);
      break;
    }
  }
  return batch;
}

/// Mirrors a batch onto the TestGraph the same way the engine applies it:
/// every raw listing (duplicates, either orientation) of a removed edge is
/// dropped, adds are appended and may grow num_nodes.
void apply_to_testgraph(TestGraph& graph, const EdgeBatch& batch) {
  if (!batch.remove.empty()) {
    std::vector<Edge> removed;
    removed.reserve(batch.remove.size());
    for (const Edge& e : batch.remove) removed.push_back(canon(e));
    std::sort(removed.begin(), removed.end());
    graph.edges.erase(
        std::remove_if(graph.edges.begin(), graph.edges.end(),
                       [&](const Edge& raw) {
                         return std::binary_search(removed.begin(),
                                                   removed.end(), canon(raw));
                       }),
        graph.edges.end());
  }
  for (const Edge& e : batch.add) {
    graph.edges.push_back(e);
    graph.num_nodes = std::max<std::size_t>(
        graph.num_nodes,
        static_cast<std::size_t>(std::max(e.first, e.second)) + 1);
  }
}

/// Shared core of the generated and replayed paths: apply `num_batches`
/// batches drawn from `next_batch` on top of `base`, holding the
/// incremental state to the three oracles after every batch.
ChurnOutcome run_schedule(
    const TestGraph& base, std::size_t num_batches,
    const std::function<EdgeBatch(const TestGraph&, std::size_t)>& next_batch,
    const cpm::Options& engine_options, std::string label,
    const ChurnOptions& options) {
  auto& schedules_total =
      obs::metrics().counter("check_churn_schedules_total");
  auto& batches_total = obs::metrics().counter("check_churn_batches_total");
  auto& mismatches_total =
      obs::metrics().counter("check_churn_mismatches_total");
  auto& faults_total = obs::metrics().counter("check_faults_injected_total");
  schedules_total.inc();

  const char* fault_env = std::getenv("KCC_CHECK_INJECT_FAULT");
  const std::string fault_kind = fault_env ? fault_env : "";

  ChurnOutcome outcome;
  outcome.label = std::move(label);

  TestGraph current = base;
  cpm::IncrementalCpm inc(base.build(), engine_options);
  std::vector<EdgeBatch> schedule;

  auto fail = [&](std::size_t batch_index, std::string what) {
    mismatches_total.inc();
    outcome.failure = outcome.label + " batch " +
                      std::to_string(batch_index + 1) + "/" +
                      std::to_string(num_batches) + ": " + std::move(what);
    outcome.repro = to_delta_stream(base, schedule);
  };

  for (std::size_t b = 0; b < num_batches && outcome.ok(); ++b) {
    const EdgeBatch batch = next_batch(current, b);
    schedule.push_back(batch);
    apply_to_testgraph(current, batch);
    try {
      inc.apply(batch);
    } catch (const Error& e) {
      fail(b, std::string("apply() rejected the batch: ") + e.what());
      break;
    }
    ++outcome.batches_applied;
    outcome.ops_applied += batch.size();
    batches_total.inc();

    const Graph g = current.build();
    cpm::Result incremental = inc.result();
    if (!fault_kind.empty() && !outcome.fault_injected) {
      const std::string injected =
          detail::inject_fault(incremental, fault_kind);
      if (!injected.empty()) {
        outcome.fault_injected = true;
        faults_total.inc();
      }
    }

    // Cheapest oracle first: the maintained adjacency must equal the
    // mutated test graph edge-for-edge (catches index corruption before it
    // can cancel out downstream in the community structure).
    const Graph maintained = inc.graph();
    if (maintained.num_nodes() != g.num_nodes() ||
        maintained.edges() != g.edges()) {
      fail(b, "maintained adjacency diverged from the mutated graph (" +
                  std::to_string(maintained.num_nodes()) + " nodes / " +
                  std::to_string(maintained.num_edges()) + " edges vs " +
                  std::to_string(g.num_nodes()) + " / " +
                  std::to_string(g.num_edges()) + ")");
      break;
    }

    // Digest identity against a from-scratch sweep of the mutated graph.
    // The incremental table is lexicographic, so the sweep baseline goes
    // through canonicalise_clique_order first.
    cpm::Options sweep_options = engine_options;
    sweep_options.engine = "sweep";
    cpm::Result fresh = cpm::Engine(sweep_options).run(g);
    cpm::canonicalise_clique_order(fresh);
    const std::string diff = detail::first_diff(
        "sweep-from-scratch", cpm::canonical_text(fresh), "incremental",
        cpm::canonical_text(incremental));
    if (!diff.empty()) {
      fail(b, diff);
      break;
    }

    // First-principles invariant oracles on the incremental result.
    Report report = check_invariants(g, incremental, options.invariants);
    outcome.invariants_checked += report.invariants_checked;
    if (!report.ok()) {
      fail(b, "invariants violated:\n" + report.to_string());
      break;
    }
  }
  return outcome;
}

}  // namespace

std::string to_delta_stream(const TestGraph& base,
                            const std::vector<EdgeBatch>& schedule) {
  std::ostringstream out;
  out << "# " << base.name << '\n';
  out << "nodes " << base.num_nodes << '\n';
  for (const Edge& e : base.edges) {
    out << "edge " << e.first << ' ' << e.second << '\n';
  }
  for (const EdgeBatch& batch : schedule) {
    for (const auto& e : batch.remove) {
      out << "remove " << e.first << ' ' << e.second << '\n';
    }
    for (const auto& e : batch.add) {
      out << "add " << e.first << ' ' << e.second << '\n';
    }
    out << "commit\n";
  }
  return out.str();
}

DeltaStream parse_delta_stream(const std::string& text) {
  DeltaStream stream;
  EdgeBatch batch;
  bool batch_open = false;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      if (stream.base.name.empty()) {
        // The first comment doubles as the provenance label.
        std::istringstream words(line.substr(hash + 1));
        std::string word, joined;
        while (words >> word) {
          if (!joined.empty()) joined += ' ';
          joined += word;
        }
        stream.base.name = joined;
      }
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string op;
    if (!(tokens >> op)) continue;
    const std::string where = "delta stream line " + std::to_string(line_no);
    auto parse_pair = [&]() {
      std::uint64_t u = 0, v = 0;
      require(static_cast<bool>(tokens >> u >> v),
              where, ": '", op, "' needs two node ids");
      return Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)};
    };
    if (op == "nodes") {
      std::uint64_t n = 0;
      require(static_cast<bool>(tokens >> n), where, ": 'nodes' needs a count");
      stream.base.num_nodes = n;
    } else if (op == "edge") {
      require(!batch_open && stream.batches.empty(),
              where, ": 'edge' must precede the first batch op");
      stream.base.edges.push_back(parse_pair());
    } else if (op == "add") {
      batch.add.push_back(parse_pair());
      batch_open = true;
    } else if (op == "remove") {
      batch.remove.push_back(parse_pair());
      batch_open = true;
    } else if (op == "commit") {
      stream.batches.push_back(std::move(batch));
      batch = {};
      batch_open = false;
    } else {
      throw Error(where + ": unknown op '" + op +
                  "' (nodes|edge|add|remove|commit)");
    }
  }
  if (batch_open) stream.batches.push_back(std::move(batch));
  if (stream.base.name.empty()) stream.base.name = "delta";
  return stream;
}

ChurnOutcome run_churn_differential(std::uint64_t seed, std::size_t index,
                                    const ChurnOptions& options) {
  const TestGraph base = generate_graph(seed, index);
  static constexpr std::size_t kBatchSizes[] = {1, 3, 8};
  const std::size_t batch_size = kBatchSizes[index % 3];
  const bool bitset = (index / 2) % 2 == 1;
  cpm::Options engine_options;
  engine_options.threads = index % 2 == 0 ? 1 : options.threads;
  engine_options.clique_backend =
      bitset ? clique::Backend::kBitset : clique::Backend::kSparse;
  std::string label = "churn:" + base.name + "/b" +
                      std::to_string(batch_size) +
                      (engine_options.threads == 1 ? "/t1" : "/tN") +
                      (bitset ? "/bitset" : "/sparse");
  if (index % 5 == 4) {
    // Every fifth schedule materializes a restricted k range, proving the
    // maintained size >= 2 table stays exact when the floor only bites at
    // materialization time.
    engine_options.min_k = 3;
    engine_options.max_k = 5;
    label += "/k3-5";
  }
  // Decorrelated from generate_graph's (seed, index) stream so schedule ops
  // don't mirror the mutations already baked into the base graph.
  Rng rng((seed ^ 0x94d049bb133111ebULL) * 0x9e3779b97f4a7c15ULL + index);
  return run_schedule(
      base, options.batches,
      [&](const TestGraph& current, std::size_t) {
        return make_batch(current, rng, batch_size);
      },
      engine_options, std::move(label), options);
}

ChurnOutcome replay_churn_delta(const std::string& text,
                                const ChurnOptions& options) {
  const DeltaStream stream = parse_delta_stream(text);
  cpm::Options engine_options;
  engine_options.threads = options.threads;
  return run_schedule(
      stream.base, stream.batches.size(),
      [&](const TestGraph&, std::size_t b) { return stream.batches[b]; },
      engine_options, "churn-replay:" + stream.base.name, options);
}

}  // namespace kcc::check
