// Batch-apply vs from-scratch-recompute benchmark for the incremental CPM
// engine (docs/ALGORITHMS.md "Incremental updates").
//
// Builds the synthetic AS ecosystem at --scale, bootstraps a live
// cpm::IncrementalCpm, then runs `--rounds` churn rounds. Each round draws
// one valid batch of --churn * |E| edge updates (half removes, half adds,
// the serving scenario's "a few links flapped" shape), and measures
//
// Churn model: link flaps at the AS edge. Removals are drawn uniformly
// from edges incident to at least one low-degree node (degree <= 64 on
// the current graph), and adds from absent pairs under the same
// constraint — the customer/peering churn that dominates real AS-level
// dynamics, where the transit backbone mesh is quasi-stationary. The
// scoping is part of the claim, not a dodge: uniformly deleting edges
// *inside* the synthetic dense core erodes it toward K_n minus random
// edges, a maximal-clique factory (21k -> 40k maximal cliques within a
// few 1% batches) in which the structural delta of one batch approaches
// the whole table, so no incremental scheme can beat a recompute there —
// and the from-scratch baseline blows up just as badly (0.3 s -> 17 s
// per run). --core-churn lifts the degree restriction to measure exactly
// that regime; the committed gate runs without it. Correctness is
// model-independent either way (the digest check below runs regardless).
//
//   * apply    — IncrementalCpm::apply(batch) on the live state;
//   * recompute — a from-scratch sweep Engine run on the post-batch graph
//     (what a daemon without the incremental engine would have to do);
//   * materialize — IncrementalCpm::result(), reported separately because
//     a server only pays it when it actually refreshes its snapshot.
//
// The headline number is median(recompute) / median(apply). The run cannot
// be fast-because-wrong: after the last round the materialized result is
// digest-compared against the canonicalised from-scratch sweep, and any
// divergence aborts with exit 1. With --json the run is written in the
// BENCH_*.json manifest schema; --min-speedup turns it into a gate. The
// committed bench-scale run is bench/expected/BENCH_incr.json:
//
//   perf_incr --scale=bench --json=BENCH_incr.json --min-speedup=5

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/timer.h"
#include "cpm/engine.h"
#include "cpm/incr_cpm.h"
#include "obs/report.h"
#include "synth/as_topology.h"

namespace kcc {
namespace {

/// Endpoints at or below this degree mark an edge as flap-eligible under
/// the default (peripheral) churn model; see the header comment.
constexpr std::uint32_t kFlapDegreeMax = 64;

/// Draws a valid batch against `edges`: `ops/2` removes sampled from the
/// present edges, the rest adds rejection-sampled from the absent pairs.
/// Unless `core_churn`, both sides are restricted to pairs whose smaller
/// endpoint degree (on the pre-batch graph) is <= kFlapDegreeMax.
cpm::EdgeBatch draw_batch(const std::vector<std::pair<NodeId, NodeId>>& edges,
                          std::size_t num_nodes, std::size_t ops,
                          bool core_churn, Rng& rng) {
  cpm::EdgeBatch batch;
  std::vector<std::pair<NodeId, NodeId>> sorted = edges;
  for (auto& e : sorted) {
    if (e.first > e.second) std::swap(e.first, e.second);
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> degree(num_nodes, 0);
  for (const auto& e : sorted) {
    ++degree[e.first];
    ++degree[e.second];
  }
  const auto flappable = [&](NodeId u, NodeId v) {
    return core_churn || std::min(degree[u], degree[v]) <= kFlapDegreeMax;
  };
  std::vector<std::pair<NodeId, NodeId>> pool;
  pool.reserve(sorted.size());
  for (const auto& e : sorted) {
    if (flappable(e.first, e.second)) pool.push_back(e);
  }
  require(!pool.empty(), "perf_incr: no flap-eligible edges to remove");
  const std::size_t removes = std::min<std::size_t>(ops / 2, pool.size());
  batch.remove = rng.sample_without_replacement(pool, removes);
  while (batch.add.size() < ops - removes) {
    const auto u = static_cast<NodeId>(rng.next_below(num_nodes));
    const auto v = static_cast<NodeId>(rng.next_below(num_nodes));
    if (u == v || !flappable(u, v)) continue;
    const std::pair<NodeId, NodeId> e{std::min(u, v), std::max(u, v)};
    if (std::binary_search(sorted.begin(), sorted.end(), e)) continue;
    if (std::find(batch.add.begin(), batch.add.end(), e) != batch.add.end()) {
      continue;
    }
    batch.add.push_back(e);
  }
  return batch;
}

/// Mirrors a batch onto the edge vector (canonical orientation, removes
/// first), so the from-scratch baseline sees exactly the mutated graph.
void apply_to_edges(std::vector<std::pair<NodeId, NodeId>>& edges,
                    const cpm::EdgeBatch& batch) {
  auto canon = [](std::pair<NodeId, NodeId> e) {
    if (e.first > e.second) std::swap(e.first, e.second);
    return e;
  };
  std::vector<std::pair<NodeId, NodeId>> removed;
  removed.reserve(batch.remove.size());
  for (const auto& e : batch.remove) removed.push_back(canon(e));
  std::sort(removed.begin(), removed.end());
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [&](const std::pair<NodeId, NodeId>& e) {
                               return std::binary_search(removed.begin(),
                                                         removed.end(),
                                                         canon(e));
                             }),
              edges.end());
  for (const auto& e : batch.add) edges.push_back(e);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int run(int argc, char** argv) {
  CliArgs args(argc, argv, {"scale", "rounds", "churn", "seed", "json",
                            "min-speedup", "core-churn"});
  const std::string scale = args.get_string("scale", "test");
  const auto rounds = static_cast<std::size_t>(
      args.get_int("rounds", scale == "bench" ? 7 : 3));
  const double churn = args.get_double("churn", 0.01);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string json_out = args.get_string("json", "");
  const double min_speedup = args.get_double("min-speedup", 0.0);
  const bool core_churn = args.get_bool("core-churn", false);

  require(scale == "test" || scale == "bench",
          "perf_incr: --scale must be test or bench");
  require(churn > 0.0 && churn <= 0.01,
          "perf_incr: --churn must be in (0, 0.01] — the incremental claim "
          "is scoped to <= 1% churn per batch");
  require(rounds > 0, "perf_incr: --rounds must be positive");

  SynthParams params =
      scale == "bench" ? SynthParams::bench_scale() : SynthParams::test_scale();
  const Graph g = generate_ecosystem(params).topology.graph;
  const auto batch_ops = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(g.num_edges()) * churn));
  std::fprintf(stderr,
               "perf_incr: graph %zu nodes, %zu edges (%s scale), %zu ops "
               "per batch (%.2f%% churn, %s model), %zu rounds\n",
               g.num_nodes(), g.num_edges(), scale.c_str(), batch_ops,
               100.0 * static_cast<double>(batch_ops) /
                   static_cast<double>(g.num_edges()),
               core_churn ? "uniform core-churn" : "peripheral flap", rounds);

  Timer bootstrap_timer;
  cpm::IncrementalCpm state(g);
  const double bootstrap_seconds = bootstrap_timer.seconds();

  std::vector<std::pair<NodeId, NodeId>> edges = g.edges();
  std::size_t num_nodes = g.num_nodes();
  Rng rng(seed);

  std::vector<double> apply_s, recompute_s, materialize_s;
  cpm::Options sweep_options;
  sweep_options.engine = "sweep";
  for (std::size_t round = 0; round < rounds; ++round) {
    const cpm::EdgeBatch batch =
        draw_batch(edges, num_nodes, batch_ops, core_churn, rng);
    apply_to_edges(edges, batch);

    Timer apply_timer;
    state.apply(batch);
    apply_s.push_back(apply_timer.seconds());

    const Graph current = Graph::from_edges(num_nodes, edges);
    Timer recompute_timer;
    const cpm::Result fresh = cpm::Engine(sweep_options).run(current);
    recompute_s.push_back(recompute_timer.seconds());

    Timer materialize_timer;
    const cpm::Result live = state.result();
    materialize_s.push_back(materialize_timer.seconds());
    require(live.cpm.total_communities() == fresh.cpm.total_communities(),
            "perf_incr: community count diverged at round ", round);
  }

  // Honesty check: full digest identity on the final state.
  {
    cpm::Result fresh =
        cpm::Engine(sweep_options).run(Graph::from_edges(num_nodes, edges));
    cpm::canonicalise_clique_order(fresh);
    require(cpm::canonical_text(state.result()) == cpm::canonical_text(fresh),
            "perf_incr: final digest diverged from the from-scratch sweep — "
            "refusing to report timings for a wrong result");
  }

  const double apply_med = median(apply_s);
  const double recompute_med = median(recompute_s);
  const double materialize_med = median(materialize_s);
  const double speedup = apply_med > 0.0 ? recompute_med / apply_med : 0.0;

  std::printf(
      "perf_incr: apply %.3f ms vs recompute %.3f ms per batch (medians, "
      "%zu ops/batch): %.1fx; materialize %.3f ms; bootstrap %.3f s\n",
      apply_med * 1e3, recompute_med * 1e3, batch_ops, speedup,
      materialize_med * 1e3, bootstrap_seconds);

  if (!json_out.empty()) {
    bench::Json doc;
    doc.add("bench", "perf_incr --scale=" + scale);
    doc.add("manifest", bench::manifest_json(obs::collect_manifest("perf_incr")));
    bench::Json graph;
    graph.add("scale", scale);
    graph.add("nodes", static_cast<std::uint64_t>(g.num_nodes()));
    graph.add("edges", static_cast<std::uint64_t>(g.num_edges()));
    doc.add("graph", graph);
    bench::Json churn_json;
    churn_json.add("rounds", static_cast<std::uint64_t>(rounds));
    churn_json.add("batch_ops", static_cast<std::uint64_t>(batch_ops));
    churn_json.add("churn_fraction",
                   static_cast<double>(batch_ops) /
                       static_cast<double>(g.num_edges()));
    churn_json.add("model", core_churn ? std::string("uniform_core")
                                       : std::string("peripheral_flap"));
    if (!core_churn) {
      churn_json.add("flap_degree_max",
                     static_cast<std::uint64_t>(kFlapDegreeMax));
    }
    doc.add("churn", churn_json);
    bench::Json timings;
    timings.add("bootstrap_seconds", bootstrap_seconds);
    timings.add("apply_seconds_median", apply_med);
    timings.add("recompute_seconds_median", recompute_med);
    timings.add("materialize_seconds_median", materialize_med);
    timings.add("speedup_apply_vs_recompute", speedup);
    doc.add("timings", timings);
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    require(f != nullptr, "perf_incr: cannot write '", json_out, "'");
    const std::string text = doc.str();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "perf_incr: wrote %s\n", json_out.c_str());
  }

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "perf_incr: FAIL: %.1fx apply-vs-recompute is below the "
                 "--min-speedup=%.1f gate\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kcc

int main(int argc, char** argv) {
  try {
    return kcc::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_incr: %s\n", e.what());
    return 1;
  }
}
