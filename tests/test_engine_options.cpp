// Property tests for cpm::Engine option validation and edge-case behavior:
// every engine must agree on what an empty k range, an out-of-range max_k,
// an empty graph or a single edge *means* — not just on big healthy inputs.
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
#include "cpm/engine.h"
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
       {"sweep", "per_k", "incremental", "almost_exact", "reference"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_EQ(cpm::find_engine("bogus"), nullptr);
  EXPECT_EQ(cpm::find_engine("stream"), nullptr);  // folded into sweep
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

}  // namespace
}  // namespace kcc
