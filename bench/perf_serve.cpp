// QPS / latency benchmark for the `kcc serve` daemon (docs/SERVING.md).
//
// Spins up an in-process serve::Server over a snapshot of the synthetic
// AS ecosystem, then measures two phases against it through real unix
// sockets:
//
//   * throughput — N client threads, each pipelining `--depth` requests per
//     batch over the paper-motivated query mix (membership 40%, community
//     25%, ancestry 15%, LCA 10%, overlap 10%). Pipelining amortizes the
//     syscall round trip, so a single core is protocol-bound, not RTT-bound.
//   * latency — one client, strict request/response round trips, reporting
//     p50/p90/p99/max microseconds.
//
// Every response in both phases is status-checked, and a sample of answers
// is verified against the in-memory cpm::Result oracle, so the numbers can
// not be "fast because wrong". With --json the run is written in the
// BENCH_*.json manifest schema (docs/FORMATS.md); --min-qps turns the run
// into a gate. The committed bench-scale run is
// bench/expected/BENCH_serve.json.
//
//   perf_serve --scale=bench --json=BENCH_serve.json --min-qps=10000

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_json.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "cpm/engine.h"
#include "io/snapshot.h"
#include "obs/report.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "synth/as_topology.h"

namespace kcc {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct MixCounts {
  std::uint64_t membership = 0;
  std::uint64_t community = 0;
  std::uint64_t ancestry = 0;
  std::uint64_t lca = 0;
  std::uint64_t overlap = 0;
};

/// Draws one request from the weighted mix, with arguments valid for the
/// snapshot (so every response is kOk and the mix measures the fast path).
std::vector<std::uint8_t> draw_request(Rng& rng,
                                       const snapshot::SnapshotView& view,
                                       MixCounts& counts) {
  const auto num_nodes = static_cast<std::uint32_t>(view.num_nodes());
  const auto min_k = static_cast<std::uint32_t>(view.min_k());
  const auto max_k = static_cast<std::uint32_t>(view.max_k());
  auto random_community = [&](std::uint32_t& k, std::uint32_t& id) {
    k = min_k + static_cast<std::uint32_t>(
                    rng.next_below(max_k - min_k + 1));
    id = static_cast<std::uint32_t>(rng.next_below(view.community_count(k)));
  };
  const std::uint64_t roll = rng.next_below(100);
  if (roll < 40) {
    ++counts.membership;
    return serve::encode_membership(
        static_cast<std::uint32_t>(rng.next_below(num_nodes)), 0);
  }
  if (roll < 65) {
    ++counts.community;
    std::uint32_t k = 0, id = 0;
    random_community(k, id);
    return serve::encode_community(k, id);
  }
  if (roll < 80) {
    ++counts.ancestry;
    std::uint32_t k = 0, id = 0;
    random_community(k, id);
    return serve::encode_ancestry(k, id);
  }
  if (roll < 90) {
    ++counts.lca;
    std::uint32_t k1 = 0, id1 = 0, k2 = 0, id2 = 0;
    random_community(k1, id1);
    random_community(k2, id2);
    return serve::encode_lca(k1, id1, k2, id2);
  }
  ++counts.overlap;
  return serve::encode_overlap(
      static_cast<std::uint32_t>(rng.next_below(num_nodes)),
      static_cast<std::uint32_t>(rng.next_below(num_nodes)));
}

/// One pipelining worker: `requests` queries in batches of `depth`.
void throughput_worker(const std::string& socket_path,
                       const snapshot::SnapshotView& view, std::uint64_t seed,
                       std::uint64_t requests, std::uint64_t depth,
                       MixCounts& counts, std::atomic<std::uint64_t>& failed) {
  serve::Client client(socket_path);
  Rng rng(seed);
  std::uint64_t sent = 0;
  while (sent < requests) {
    const std::uint64_t batch = std::min(depth, requests - sent);
    for (std::uint64_t i = 0; i < batch; ++i) {
      client.send_request(draw_request(rng, view, counts));
    }
    for (std::uint64_t i = 0; i < batch; ++i) {
      const auto payload = client.read_response();
      if (payload[0] != static_cast<std::uint8_t>(serve::Status::kOk)) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    sent += batch;
  }
}

/// Spot-check: the served answers must match the in-memory result. Keeps
/// the benchmark honest without turning it into the (separate) test suite.
void verify_sample(serve::Client& client, const cpm::Result& result,
                   std::uint32_t num_nodes) {
  Rng rng(999);
  for (int i = 0; i < 200; ++i) {
    const auto node =
        static_cast<std::uint32_t>(rng.next_below(num_nodes + 1));
    std::vector<serve::Membership> expected;
    for (std::size_t k = result.cpm.min_k; k <= result.cpm.max_k; ++k) {
      for (const Community& c : result.cpm.at(k).communities) {
        if (std::binary_search(c.nodes.begin(), c.nodes.end(), node)) {
          expected.push_back({static_cast<std::uint32_t>(k), c.id});
        }
      }
    }
    require(client.membership(node) == expected,
            "perf_serve: served membership diverges from the in-memory "
            "oracle at node ", node);
  }
  for (std::size_t k = result.cpm.min_k; k <= result.cpm.max_k; ++k) {
    const Community& c = result.cpm.at(k).communities[0];
    require(client.community(k, c.id) == c.nodes,
            "perf_serve: served community diverges at k=", k);
  }
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

int run(int argc, char** argv) {
  CliArgs args(argc, argv,
               {"scale", "clients", "depth", "requests", "latency-samples",
                "json", "min-qps", "seed"});
  const std::string scale = args.get_string("scale", "test");
  const auto clients = static_cast<std::size_t>(args.get_int("clients", 4));
  const auto depth = static_cast<std::uint64_t>(args.get_int("depth", 64));
  const auto requests = static_cast<std::uint64_t>(
      args.get_int("requests", scale == "bench" ? 200000 : 20000));
  const auto latency_samples = static_cast<std::uint64_t>(
      args.get_int("latency-samples", scale == "bench" ? 20000 : 2000));
  const std::string json_out = args.get_string("json", "");
  const double min_qps = args.get_double("min-qps", 0.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  require(scale == "test" || scale == "bench",
          "perf_serve: --scale must be test or bench");
  require(clients > 0 && depth > 0 && requests > 0,
          "perf_serve: --clients/--depth/--requests must be positive");

  // Build the corpus: synthetic AS ecosystem -> sweep engine -> snapshot.
  SynthParams params =
      scale == "bench" ? SynthParams::bench_scale() : SynthParams::test_scale();
  const Graph& g = generate_ecosystem(params).topology.graph;
  std::fprintf(stderr, "perf_serve: graph %zu nodes, %zu edges (%s scale)\n",
               g.num_nodes(), g.num_edges(), scale.c_str());
  const cpm::Result result = cpm::Engine(cpm::Options{}).run(g);

  // Per process: the smoke and full runs may execute concurrently, and
  // rewriting a snapshot another run has mapped would fault its readers.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("kcc_perf_serve-" + std::to_string(::getpid())))
                              .string();
  std::filesystem::create_directories(dir);
  const std::string snap_path = dir + "/ecosystem.snap";
  const std::string socket_path = dir + "/perf.sock";
  snapshot::write_snapshot_file(snap_path, result);
  const auto snapshot_bytes = std::filesystem::file_size(snap_path);

  serve::ServerOptions options;
  options.socket_path = socket_path;
  serve::Server server(snap_path, std::move(options));
  server.start();
  const snapshot::SnapshotView& view = server.view();
  std::fprintf(stderr,
               "perf_serve: serving %zu communities (k %zu..%zu), "
               "snapshot %llu bytes\n",
               view.num_communities(), view.min_k(), view.max_k(),
               static_cast<unsigned long long>(snapshot_bytes));

  // Phase 0: correctness spot-check against the in-memory result.
  {
    serve::Client client(socket_path);
    verify_sample(client, result, static_cast<std::uint32_t>(g.num_nodes()));
  }

  // Phase 1: pipelined throughput.
  std::vector<std::thread> workers;
  std::vector<MixCounts> counts(clients);
  std::atomic<std::uint64_t> failed{0};
  const std::uint64_t per_client = requests / clients;
  const double t0 = now_seconds();
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      throughput_worker(socket_path, view, seed + c, per_client, depth,
                        counts[c], failed);
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed = now_seconds() - t0;
  const std::uint64_t total = per_client * clients;
  const double qps = static_cast<double>(total) / elapsed;
  require(failed.load() == 0,
          "perf_serve: ", failed.load(), " requests answered non-kOk");

  MixCounts mix;
  for (const MixCounts& c : counts) {
    mix.membership += c.membership;
    mix.community += c.community;
    mix.ancestry += c.ancestry;
    mix.lca += c.lca;
    mix.overlap += c.overlap;
  }

  // Phase 2: unpipelined round-trip latency.
  std::vector<double> lat_us;
  lat_us.reserve(latency_samples);
  {
    serve::Client client(socket_path);
    Rng rng(seed + 7777);
    MixCounts ignored;
    for (std::uint64_t i = 0; i < latency_samples; ++i) {
      const auto request = draw_request(rng, view, ignored);
      const double start = now_seconds();
      client.send_request(request);
      const auto payload = client.read_response();
      lat_us.push_back((now_seconds() - start) * 1e6);
      require(payload[0] == static_cast<std::uint8_t>(serve::Status::kOk),
              "perf_serve: latency-phase request failed");
    }
  }
  std::sort(lat_us.begin(), lat_us.end());
  const double p50 = percentile(lat_us, 0.50);
  const double p90 = percentile(lat_us, 0.90);
  const double p99 = percentile(lat_us, 0.99);

  server.shutdown();
  std::filesystem::remove_all(dir);

  std::printf(
      "perf_serve: %llu requests, %zu clients x depth %llu: %.0f QPS "
      "(%.2fs)\n",
      static_cast<unsigned long long>(total), clients,
      static_cast<unsigned long long>(depth), qps, elapsed);
  std::printf(
      "perf_serve: round-trip latency p50 %.1f us, p90 %.1f us, p99 %.1f "
      "us, max %.1f us (%zu samples)\n",
      p50, p90, p99, lat_us.empty() ? 0.0 : lat_us.back(), lat_us.size());

  if (!json_out.empty()) {
    bench::Json doc;
    doc.add("bench", "perf_serve --scale=" + scale);
    doc.add("manifest", bench::manifest_json(obs::collect_manifest("perf_serve")));
    bench::Json graph;
    graph.add("scale", scale);
    graph.add("nodes", static_cast<std::uint64_t>(g.num_nodes()));
    graph.add("edges", static_cast<std::uint64_t>(g.num_edges()));
    graph.add("communities",
              static_cast<std::uint64_t>(view.num_communities()));
    graph.add("min_k", static_cast<std::uint64_t>(view.min_k()));
    graph.add("max_k", static_cast<std::uint64_t>(view.max_k()));
    graph.add("snapshot_bytes", static_cast<std::uint64_t>(snapshot_bytes));
    doc.add("graph", graph);
    bench::Json mix_json;
    mix_json.add("membership", mix.membership);
    mix_json.add("community", mix.community);
    mix_json.add("ancestry", mix.ancestry);
    mix_json.add("lca", mix.lca);
    mix_json.add("overlap", mix.overlap);
    bench::Json throughput;
    throughput.add("requests", total);
    throughput.add("clients", static_cast<std::uint64_t>(clients));
    throughput.add("pipeline_depth", depth);
    throughput.add("seconds", elapsed);
    throughput.add("qps", qps);
    throughput.add("mix", mix_json);
    doc.add("throughput", throughput);
    bench::Json latency;
    latency.add("samples", static_cast<std::uint64_t>(lat_us.size()));
    latency.add("p50_us", p50);
    latency.add("p90_us", p90);
    latency.add("p99_us", p99);
    latency.add("max_us", lat_us.empty() ? 0.0 : lat_us.back());
    doc.add("latency", latency);
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    require(f != nullptr, "perf_serve: cannot write '", json_out, "'");
    const std::string text = doc.str();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "perf_serve: wrote %s\n", json_out.c_str());
  }

  if (min_qps > 0.0 && qps < min_qps) {
    std::fprintf(stderr,
                 "perf_serve: FAIL: %.0f QPS is below the --min-qps=%.0f "
                 "gate\n",
                 qps, min_qps);
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
    std::fprintf(stderr, "perf_serve: %s\n", e.what());
    return 1;
  }
}
