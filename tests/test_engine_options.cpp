// Property tests for cpm::Engine option validation and edge-case behavior:
// every engine must agree on what an empty k range, an out-of-range max_k,
// a clique floor, an empty graph, a single edge or a k = 2 level over
// several components *means* — not just on big healthy inputs.
//
// The engine axis is generated from cpm::engine_registry(), so a newly
// registered backend (including approximate ones) is held to the same
// edge-case contract automatically. Digest-identity checks are restricted
// to exact engines: approximate results carry a different exactness header
// and are compared by similarity (cpm/compare.h) instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "cpm/engine.h"
#include "cpm/incr_cpm.h"
#include "obs/report.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;
using testing::make_graph;

std::vector<std::string> all_engines() {
  std::vector<std::string> names;
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    names.push_back(info.name);
  }
  return names;
}

std::vector<std::string> exact_engines() {
  std::vector<std::string> names;
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    if (info.caps.exact) names.push_back(info.name);
  }
  return names;
}

cpm::Result run(const std::string& engine, const Graph& g,
                std::size_t min_k = 2, std::size_t max_k = 0) {
  cpm::Options options;
  options.engine = engine;
  options.min_k = min_k;
  options.max_k = max_k;
  return cpm::Engine(options).run(g);
}

TEST(EngineOptions, RegistryListsTheBuiltins) {
  const std::vector<std::string> names = all_engines();
  for (const char* expected :
       {"sweep", "per_k", "almost_exact", "reference"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_EQ(cpm::find_engine("bogus"), nullptr);
  EXPECT_EQ(cpm::find_engine("stream"), nullptr);  // folded into sweep
  // Churn is cpm::IncrementalCpm behind `kcc update`, not a static engine.
  EXPECT_EQ(cpm::find_engine("incremental"), nullptr);
  EXPECT_THROW(cpm::engine_info("bogus"), Error);
  cpm::Options options;
  options.engine = "bogus";
  EXPECT_THROW(cpm::Engine{options}, Error);
}

TEST(EngineOptions, MinKBelowTwoRejectedByEveryEngine) {
  for (const std::string& engine : all_engines()) {
    cpm::Options options;
    options.engine = engine;
    options.min_k = 1;
    EXPECT_THROW(cpm::Engine{options}, Error) << engine;
    options.min_k = 0;
    EXPECT_THROW(cpm::Engine{options}, Error) << engine;
  }
}

TEST(EngineOptions, MinCliqueSizeBelowTwoRejectedByEveryEngine) {
  for (const std::string& engine : all_engines()) {
    cpm::Options options;
    options.engine = engine;
    options.min_clique_size = 1;
    EXPECT_THROW(cpm::Engine{options}, Error) << engine;
  }
}

TEST(EngineOptions, MinCliqueSizeAboveMinKRejectedByEveryEngine) {
  // Every level, k = 2 included, percolates the clique table, so a floor
  // above min_k would hand the lowest levels a truncated table.
  const auto expect_floor_error = [](const auto& construct,
                                     const std::string& label) {
    try {
      construct();
      ADD_FAILURE() << label << ": expected kcc::Error";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("min_clique_size 3"), std::string::npos)
          << label << ": " << what;
      EXPECT_NE(what.find("min_k 2"), std::string::npos)
          << label << ": " << what;
    }
  };
  cpm::Options options;
  options.min_k = 2;
  options.min_clique_size = 3;
  for (const std::string& engine : all_engines()) {
    options.engine = engine;
    expect_floor_error([&] { cpm::Engine{options}; }, engine);
  }
  expect_floor_error(
      [&] { cpm::IncrementalCpm(complete_graph(4), options); },
      "IncrementalCpm");
}

TEST(EngineOptions, FloorAtMinKKeepsTheLevelsAboveIt) {
  // min_k = min_clique_size = 4: the dropped cliques (size < 4) take part
  // in no level k >= 4, so every engine's node sets equal those of a run
  // at the default floor.
  const Graph g = testing::random_graph(18, 0.5, 11);
  const cpm::CanonicalOptions nodes_only{false, false, false};
  for (const std::string& engine : all_engines()) {
    cpm::Options options;
    options.engine = engine;
    options.min_k = 4;
    const cpm::Result full = cpm::Engine(options).run(g);
    ASSERT_TRUE(full.cpm.has_k(4)) << engine;
    ASSERT_GT(full.cpm.at(4).count(), 0u) << engine;
    options.min_clique_size = 4;
    const cpm::Result floored = cpm::Engine(options).run(g);
    EXPECT_EQ(cpm::canonical_text(floored, nodes_only),
              cpm::canonical_text(full, nodes_only))
        << engine;
  }
}

TEST(EngineOptions, MinKAboveMaxKYieldsEmptyResultEverywhere) {
  const Graph g = complete_graph(6);
  for (const std::string& engine : all_engines()) {
    const cpm::Result result = run(engine, g, /*min_k=*/5, /*max_k=*/3);
    EXPECT_LT(result.cpm.max_k, result.cpm.min_k) << engine;
    EXPECT_TRUE(result.cpm.by_k.empty()) << engine;
    EXPECT_FALSE(result.has_tree) << engine;
  }
}

TEST(EngineOptions, MaxKAboveLargestCliqueClampsConsistently) {
  // K5 plus a pendant edge: the largest clique is 5, so max_k=50 must clamp
  // to 5 on every engine (the reference engine stops at the first empty k).
  Graph g = make_graph(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3},
                           {1, 4}, {2, 3}, {2, 4}, {3, 4}, {4, 5}});
  for (const std::string& engine : all_engines()) {
    const cpm::Result result = run(engine, g, 2, 50);
    EXPECT_EQ(result.cpm.min_k, 2u) << engine;
    EXPECT_EQ(result.cpm.max_k, 5u) << engine;
    ASSERT_TRUE(result.cpm.has_k(5)) << engine;
    EXPECT_EQ(result.cpm.at(5).count(), 1u) << engine;
    EXPECT_EQ(result.cpm.at(5).communities[0].nodes,
              (NodeSet{0, 1, 2, 3, 4}))
        << engine;
  }
}

TEST(EngineOptions, MinKAboveLargestCliqueYieldsEmptyResultEverywhere) {
  const Graph g = complete_graph(4);
  for (const std::string& engine : all_engines()) {
    const cpm::Result result = run(engine, g, /*min_k=*/9);
    EXPECT_LT(result.cpm.max_k, result.cpm.min_k) << engine;
    EXPECT_TRUE(result.cpm.by_k.empty()) << engine;
    EXPECT_FALSE(result.has_tree) << engine;
  }
}

TEST(EngineOptions, EmptyGraphYieldsEmptyResultEverywhere) {
  const Graph empty;
  for (const std::string& engine : all_engines()) {
    const cpm::Result result = run(engine, empty);
    EXPECT_TRUE(result.cpm.by_k.empty()) << engine;
    EXPECT_LT(result.cpm.max_k, result.cpm.min_k) << engine;
    EXPECT_FALSE(result.has_tree) << engine;
  }
}

TEST(EngineOptions, SingleEdgeAgreesAcrossEngines) {
  const Graph g = make_graph(2, {{0, 1}});
  for (const std::string& engine : all_engines()) {
    const cpm::Result result = run(engine, g);
    EXPECT_EQ(result.cpm.min_k, 2u) << engine;
    EXPECT_EQ(result.cpm.max_k, 2u) << engine;
    ASSERT_EQ(result.cpm.at(2).count(), 1u) << engine;
    EXPECT_EQ(result.cpm.at(2).communities[0].nodes, (NodeSet{0, 1}))
        << engine;
    ASSERT_TRUE(result.has_tree) << engine;
    EXPECT_EQ(result.tree.nodes().size(), 1u) << engine;
  }
  // And byte-for-byte among the exact engines, through the canonical
  // node-set projection (the exactness header keeps approximate results out
  // of digest comparisons even when the node sets coincide).
  const cpm::CanonicalOptions nodes_only{false, false, false};
  const std::uint64_t baseline =
      cpm::canonical_digest(run("per_k", g), nodes_only);
  for (const std::string& engine : exact_engines()) {
    EXPECT_EQ(cpm::canonical_digest(run(engine, g), nodes_only), baseline)
        << engine;
  }
}

TEST(EngineOptions, K2IsConnectedComponentsOnEveryEngine) {
  // Triangle {0,1,2} with a pendant edge {2,3}, a second component {4,5},
  // isolated nodes 6 and 7. The k = 2 level comes from the clique table;
  // it must equal the graph's components with >= 2 nodes.
  const Graph g = make_graph(8, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {4, 5}});
  for (const std::string& engine : all_engines()) {
    const cpm::Result result = run(engine, g);
    ASSERT_TRUE(result.cpm.has_k(2)) << engine;
    const CommunitySet& level2 = result.cpm.at(2);
    ASSERT_EQ(level2.count(), 2u) << engine;
    EXPECT_EQ(level2.communities[0].nodes, (NodeSet{0, 1, 2, 3})) << engine;
    EXPECT_EQ(level2.communities[1].nodes, (NodeSet{4, 5})) << engine;
    ASSERT_TRUE(result.cpm.has_k(3)) << engine;
    ASSERT_EQ(result.cpm.at(3).count(), 1u) << engine;
    EXPECT_EQ(result.cpm.at(3).communities[0].nodes, (NodeSet{0, 1, 2}))
        << engine;
  }
  const cpm::CanonicalOptions nodes_only{false, false, false};
  const std::uint64_t baseline =
      cpm::canonical_digest(run("per_k", g), nodes_only);
  for (const std::string& engine : exact_engines()) {
    EXPECT_EQ(cpm::canonical_digest(run(engine, g), nodes_only), baseline)
        << engine;
  }
}

TEST(EngineOptions, RestrictedRangeIsARestrictionOfTheFullRun) {
  // Communities at k must not depend on the requested [min_k, max_k]
  // window; they are intrinsic to the graph. Exact engines only: the
  // almost_exact single-pass percolation carries union-find state down from
  // higher levels, so its window is an approximation of the full run, not a
  // projection of it (the gap is bounded by check::differential instead).
  const Graph g = testing::overlapping_cliques(5, 5, 3);
  for (const std::string& engine : exact_engines()) {
    const cpm::Result full = run(engine, g);
    const cpm::Result window = run(engine, g, 3, 4);
    ASSERT_EQ(window.cpm.min_k, 3u) << engine;
    ASSERT_EQ(window.cpm.max_k, 4u) << engine;
    for (std::size_t k = 3; k <= 4; ++k) {
      ASSERT_EQ(window.cpm.at(k).count(), full.cpm.at(k).count())
          << engine << " k=" << k;
      for (CommunityId id = 0; id < window.cpm.at(k).count(); ++id) {
        EXPECT_EQ(window.cpm.at(k).communities[id].nodes,
                  full.cpm.at(k).communities[id].nodes)
            << engine << " k=" << k;
      }
    }
  }
}

TEST(EngineOptions, CliqueBackendParsedFromCli) {
  const char* argv[] = {"prog", "--engine=sweep", "--clique-backend=bitset"};
  const CliArgs args(3, argv, cpm::engine_cli_flags());
  const cpm::Options options = cpm::options_from_cli(args);
  EXPECT_EQ(options.clique_backend, clique::Backend::kBitset);

  const char* dflt[] = {"prog"};
  EXPECT_EQ(cpm::options_from_cli(CliArgs(1, dflt, cpm::engine_cli_flags()))
                .clique_backend,
            clique::Backend::kAuto);

  const char* bad[] = {"prog", "--clique-backend=dense"};
  EXPECT_THROW(
      cpm::options_from_cli(CliArgs(2, bad, cpm::engine_cli_flags())), Error);
}

TEST(EngineOptions, CliqueBackendDigestInvariantAcrossEngines) {
  // The backend knob must never change any engine's output. Within one
  // engine the *full* digest (clique table and tree included) must be
  // backend-independent — approximate engines included; across the exact
  // engines the canonical node-set projection must agree too (the reference
  // engine has no clique table of its own).
  const Graph g = testing::overlapping_cliques(6, 5, 3);
  const cpm::CanonicalOptions nodes_only{false, false, false};
  std::uint64_t cross_engine_baseline = 0;
  bool have_baseline = false;
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    std::uint64_t full_baseline = 0;
    bool have_full = false;
    for (clique::Backend backend :
         {clique::Backend::kAuto, clique::Backend::kSparse,
          clique::Backend::kBitset}) {
      cpm::Options options;
      options.engine = info.name;
      options.clique_backend = backend;
      const cpm::Result result = cpm::Engine(options).run(g);
      const std::uint64_t full = cpm::canonical_digest(result);
      if (!have_full) {
        full_baseline = full;
        have_full = true;
      }
      EXPECT_EQ(full, full_baseline)
          << info.name << " / " << clique::backend_name(backend);
      if (!info.caps.exact) continue;
      const std::uint64_t nodes = cpm::canonical_digest(result, nodes_only);
      if (!have_baseline) {
        cross_engine_baseline = nodes;
        have_baseline = true;
      }
      EXPECT_EQ(nodes, cross_engine_baseline)
          << info.name << " / " << clique::backend_name(backend);
    }
  }
}


// Run reports name the stages docs/OBSERVABILITY.md lists: every engine's
// tree step is its own `tree` stage, after the percolation stages, and only
// when a tree is built — including the sweep-style engines, whose tree comes
// out of the level loop. kcc_bench's stage columns read these samples, so
// the percolate stage must take measurable time and the stage walls must fit
// inside the run.
TEST(EngineOptions, RunReportRecordsTheTreeStageLast) {
  const Graph g = testing::random_graph(40, 0.25, 7);
  obs::RunRecorder& recorder = obs::RunRecorder::instance();
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    if (info.caps.exponential) continue;
    for (const bool build_tree : {true, false}) {
      cpm::Options options;
      options.engine = info.name;
      options.build_tree = build_tree;
      recorder.clear();
      recorder.set_enabled(true);
      const Timer timer;
      const cpm::Result result = cpm::Engine(options).run(g);
      const double run_seconds = timer.seconds();
      recorder.set_enabled(false);
      ASSERT_GE(result.cpm.max_k, result.cpm.min_k) << info.name;
      std::vector<std::string> names;
      double percolate_seconds = 0.0;
      double stage_seconds = 0.0;
      for (const obs::StageSample& stage : recorder.stages()) {
        names.push_back(stage.name);
        if (stage.name == "percolate") percolate_seconds += stage.wall_seconds;
        stage_seconds += stage.wall_seconds;
      }
      const std::string tag =
          info.name + (build_tree ? " tree on" : " tree off");
      ASSERT_FALSE(names.empty()) << tag;
      EXPECT_GT(percolate_seconds, 0.0) << tag;
      // The stages do not nest, so their walls fit inside the run.
      EXPECT_LE(stage_seconds, run_seconds + 1e-9) << tag;
      EXPECT_EQ(std::count(names.begin(), names.end(), "tree"),
                build_tree ? 1 : 0)
          << tag;
      if (build_tree) {
        EXPECT_EQ(names.back(), "tree") << tag;
      }
      EXPECT_EQ(result.has_tree, build_tree) << tag;
    }
  }
  recorder.clear();
}

}  // namespace
}  // namespace kcc
