// The single-sweep engine against the per-k oracle: set-identical
// communities for every k on a spread of graph families and seeds, the
// nesting invariant of the in-pass community tree, and the cpm::Engine
// facade that fronts the engines. The budgeted (spilling) sweep has its
// own suite in tests/test_stream_cpm.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "clique/parallel_cliques.h"
#include "common/error.h"
#include "common/set_ops.h"
#include "common/thread_pool.h"
#include "cpm/clique_index.h"
#include "cpm/cpm.h"
#include "cpm/engine.h"
#include "cpm/sweep_cpm.h"
#include "synth/as_topology.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;
using testing::expect_differential_ok;
using testing::expect_nesting;
using testing::expect_same_cpm;
using testing::expect_same_tree;
using testing::make_graph;
using testing::overlapping_cliques;
using testing::preferential_attachment_graph;
using testing::random_graph;

void check_graph(const Graph& g, const std::string& label,
                 CpmOptions options = {}) {
  const CpmResult oracle = run_cpm(g, options);
  const SweepCpmResult sweep = run_sweep_cpm(g, options);
  expect_same_cpm(oracle, sweep.cpm, label);
  // Default-option graphs additionally go through the check:: differential
  // matrix (every engine × threads × budgets + the invariant oracles).
  if (options.min_k == 2 && options.max_k == 0) {
    expect_differential_ok(g, label);
  }
  if (sweep.cpm.max_k < sweep.cpm.min_k) return;  // nothing to arrange
  expect_nesting(sweep.cpm, sweep.tree, label);

  // from_levels (in-pass) must agree with the post-hoc construction.
  expect_same_tree(CommunityTree::build(oracle), sweep.tree, label);
}

// ------------------------------------------------ sweep vs per-k oracle

TEST(SweepCpm, MatchesOracleOnRandomGraphs) {
  // >= 10 independent seeds across two densities.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    check_graph(random_graph(60, 0.2, seed),
                "random n=60 p=0.2 seed=" + std::to_string(seed));
  }
  for (std::uint64_t seed = 7; seed <= 12; ++seed) {
    check_graph(random_graph(40, 0.4, seed),
                "random n=40 p=0.4 seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, MatchesOracleOnScaleFreeGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_graph(preferential_attachment_graph(150, 4, seed),
                "pa n=150 m=4 seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, MatchesOracleOnSyntheticEcosystem) {
  SynthParams params = SynthParams::test_scale();
  for (std::uint64_t seed : {7u, 42u}) {
    params.seed = seed;
    const Graph g = generate_ecosystem(params).topology.graph;
    check_graph(g, "synth seed=" + std::to_string(seed));
  }
}

TEST(SweepCpm, MatchesOracleOnStructuredGraphs) {
  check_graph(complete_graph(8), "K8");
  check_graph(overlapping_cliques(5, 5, 3), "two 5-cliques sharing 3");
  check_graph(overlapping_cliques(6, 4, 2), "6-clique and 4-clique sharing 2");
  check_graph(make_graph(4, {{0, 1}, {2, 3}}), "two disjoint edges");
}

TEST(SweepCpm, MatchesOracleWithRestrictedKRange) {
  const Graph g = random_graph(50, 0.3, 99);
  for (std::size_t min_k : {2u, 3u, 4u, 6u}) {
    CpmOptions options;
    options.min_k = min_k;
    check_graph(g, "min_k=" + std::to_string(min_k), options);
    options.max_k = min_k + 2;
    check_graph(g, "k in [" + std::to_string(min_k) + ", +2]", options);
  }
}

TEST(SweepCpm, EmptyRangeYieldsNoLevelsAndNoTree) {
  // Min_k above the largest clique: nothing percolates.
  CpmOptions options;
  options.min_k = 9;
  const SweepCpmResult sweep = run_sweep_cpm(complete_graph(5), options);
  EXPECT_LT(sweep.cpm.max_k, sweep.cpm.min_k);
  EXPECT_TRUE(sweep.cpm.by_k.empty());
  EXPECT_TRUE(sweep.tree.nodes().empty());
}

TEST(SweepCpm, RejectsBadInput) {
  CpmOptions options;
  options.min_k = 1;
  EXPECT_THROW(run_sweep_cpm(complete_graph(3), options), Error);
  EXPECT_THROW(
      run_sweep_cpm_on_cliques(complete_graph(3), {{2, 0, 1}}, {}), Error);
}

TEST(SweepCpm, PrejoinedPairsRunTheSameLoop) {
  // The flat pairs of the batch join, in any order, dropped into the
  // buckets: same communities, ids and tree as the sweep's own join.
  const Graph g = random_graph(50, 0.3, 23);
  ThreadPool pool(2);
  const std::vector<NodeSet> cliques = parallel_maximal_cliques(g, pool, 2);
  const SweepCpmResult joined = run_sweep_cpm_on_cliques(g, cliques, {});
  std::vector<CliqueOverlap> pairs =
      compute_clique_overlaps(cliques, g.num_nodes(), 2, pool);
  std::reverse(pairs.begin(), pairs.end());
  const SweepCpmResult prejoined =
      run_sweep_cpm_prejoined(g, cliques, std::move(pairs), {});
  expect_same_cpm(joined.cpm, prejoined.cpm, "prejoined");
  expect_same_tree(joined.tree, prejoined.tree, "prejoined");
  EXPECT_EQ(joined.stats.pairs, prejoined.stats.pairs);
}

TEST(SweepCpm, PrejoinedRejectsAnOverlapNoCliquePairCanHave) {
  // Two distinct maximal cliques of size 3 share at most 2 nodes.
  CpmOptions options;
  options.min_k = 3;
  try {
    run_sweep_cpm_prejoined(complete_graph(4), {{0, 1, 2}, {1, 2, 3}},
                            {{0, 1, 3}}, options);
    FAIL() << "expected kcc::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "run_sweep_cpm_prejoined: overlap 3 exceeds the clique-size "
              "bound");
  }
}

TEST(SweepCpm, RejectionMessagesNameTheCaller) {
  const auto error_of = [](const std::vector<NodeSet>& cliques,
                           std::size_t min_k) -> std::string {
    CpmOptions options;
    options.min_k = min_k;
    try {
      run_sweep_cpm_on_cliques(complete_graph(3), cliques, options);
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of({{0, 1, 2}}, 1),
            "run_sweep_cpm_on_cliques: min_k must be >= 2");
  EXPECT_EQ(error_of({{0, 1, 2}, {2, 0, 1}}, 2),
            "run_sweep_cpm_on_cliques: cliques must be sorted and of size "
            ">= 2");
  EXPECT_EQ(error_of({{1}}, 2),
            "run_sweep_cpm_on_cliques: cliques must be sorted and of size "
            ">= 2");
}

// ------------------------------------------------------- engine facade

TEST(CpmEngine, SweepAndPerKDispatchAgree) {
  const Graph g = random_graph(50, 0.3, 5);
  cpm::Options options;
  options.engine = "sweep";
  const cpm::Result sweep = cpm::Engine(options).run(g);
  options.engine = "per_k";
  const cpm::Result per_k = cpm::Engine(options).run(g);

  expect_same_cpm(per_k.cpm, sweep.cpm, "engine dispatch");
  ASSERT_TRUE(sweep.has_tree);
  ASSERT_TRUE(per_k.has_tree);
  EXPECT_EQ(sweep.tree.nodes().size(), per_k.tree.nodes().size());
  EXPECT_EQ(sweep.engine_name, "sweep");
  EXPECT_EQ(per_k.engine_name, "per_k");
  EXPECT_EQ(sweep.exactness, cpm::Exactness::kExact);
  EXPECT_EQ(per_k.exactness, cpm::Exactness::kExact);
  EXPECT_GT(sweep.timings.total_seconds, 0.0);
  EXPECT_GT(sweep.timings.cliques_seconds, 0.0);
  EXPECT_GT(sweep.timings.percolate_seconds, 0.0);
}

TEST(CpmEngine, ReferenceEngineAgreesOnNodeSets) {
  const Graph g = overlapping_cliques(5, 5, 3);
  cpm::Options options;
  options.engine = "reference";
  const cpm::Result ref = cpm::Engine(options).run(g);
  options.engine = "sweep";
  const cpm::Result sweep = cpm::Engine(options).run(g);

  ASSERT_EQ(ref.cpm.min_k, sweep.cpm.min_k);
  ASSERT_EQ(ref.cpm.max_k, sweep.cpm.max_k);
  for (std::size_t k = ref.cpm.min_k; k <= ref.cpm.max_k; ++k) {
    ASSERT_EQ(ref.cpm.at(k).count(), sweep.cpm.at(k).count()) << "k=" << k;
    for (CommunityId id = 0; id < ref.cpm.at(k).count(); ++id) {
      EXPECT_EQ(ref.cpm.at(k).communities[id].nodes,
                sweep.cpm.at(k).communities[id].nodes)
          << "k=" << k;
    }
  }
  // The reference result carries no clique ids; its tree comes from the
  // containment fallback and must still nest correctly.
  ASSERT_TRUE(ref.has_tree);
  expect_nesting(ref.cpm, ref.tree, "reference tree");
}

TEST(CpmEngine, ReferenceEngineRejectsPreEnumeratedCliques) {
  cpm::Options options;
  options.engine = "reference";
  EXPECT_THROW(
      cpm::Engine(options).run_on_cliques(complete_graph(4), {{0, 1, 2, 3}}),
      Error);
}

TEST(CpmEngine, BuildTreeCanBeDisabled) {
  cpm::Options options;
  options.build_tree = false;
  const cpm::Result result = cpm::Engine(options).run(complete_graph(6));
  EXPECT_FALSE(result.has_tree);
  EXPECT_EQ(result.cpm.max_k, 6u);
}

TEST(CpmEngine, WeightedRunFiltersAndNeverBuildsATree) {
  const Graph g = overlapping_cliques(4, 4, 2);
  // All edge weights 1 except a heavy triangle {0, 1, 2}.
  std::vector<double> per_edge;
  for (const auto& [u, v] : g.edges()) {
    per_edge.push_back(u <= 2 && v <= 2 ? 4.0 : 1.0);
  }
  const EdgeWeights weights(g, std::move(per_edge));

  cpm::Options options;
  options.min_k = 3;
  options.max_k = 3;
  options.intensity_threshold = 2.0;
  const cpm::Result result = cpm::Engine(options).run_weighted(g, weights);
  EXPECT_FALSE(result.has_tree);
  ASSERT_TRUE(result.cpm.has_k(3));
  ASSERT_EQ(result.cpm.at(3).count(), 1u);
  EXPECT_EQ(result.cpm.at(3).communities[0].nodes, (NodeSet{0, 1, 2}));
}

TEST(CpmEngine, ValidatesOptions) {
  cpm::Options options;
  options.min_k = 1;
  EXPECT_THROW(cpm::Engine{options}, Error);
  options.min_k = 2;
  options.min_clique_size = 1;
  EXPECT_THROW(cpm::Engine{options}, Error);
}

TEST(CpmEngine, UnknownEngineNamesListTheRegisteredOnes) {
  // The retired stream engine is an unknown name like any other; the
  // error lists what is registered.
  try {
    cpm::engine_info("stream");
    FAIL() << "expected kcc::Error for the retired stream engine";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown engine 'stream' (" + cpm::engine_names_joined() + ")");
  }
  EXPECT_EQ(cpm::engine_names_joined(),
            "sweep|per_k|incremental|almost_exact|reference");
}

TEST(CpmEngine, OptionsFromCliAppliesTheBudgetFlag) {
  EXPECT_TRUE(cpm::engine_info("sweep").caps.supports_memory_budget);
  const char* argv[] = {"prog", "--engine=sweep", "--memory-budget=64M"};
  const CliArgs args(3, argv, cpm::engine_cli_flags());
  const cpm::Options options = cpm::options_from_cli(args);
  EXPECT_EQ(options.engine, "sweep");
  EXPECT_EQ(options.memory_budget, 64ull * 1024 * 1024);

  const char* bad[] = {"prog", "--memory-budget=12X"};
  EXPECT_THROW(
      cpm::options_from_cli(CliArgs(2, bad, cpm::engine_cli_flags())), Error);
  const char* stream[] = {"prog", "--engine=stream"};
  EXPECT_THROW(
      cpm::options_from_cli(CliArgs(2, stream, cpm::engine_cli_flags())),
      Error);
}

TEST(CpmEngine, OptionsFromCliAppliesSharedFlags) {
  const char* argv[] = {"prog", "--k-min=3", "--k-max=7", "--engine=per_k",
                        "--threads=2"};
  const CliArgs args(5, argv, cpm::engine_cli_flags());
  const cpm::Options options = cpm::options_from_cli(args);
  EXPECT_EQ(options.min_k, 3u);
  EXPECT_EQ(options.max_k, 7u);
  EXPECT_EQ(options.threads, 2u);
  EXPECT_EQ(options.engine, "per_k");

  // Defaults pass through untouched when no flag is given.
  const char* bare[] = {"prog"};
  cpm::Options defaults;
  defaults.min_k = 4;
  const cpm::Options kept =
      cpm::options_from_cli(CliArgs(1, bare, cpm::engine_cli_flags()),
                            defaults);
  EXPECT_EQ(kept.min_k, 4u);
  EXPECT_EQ(kept.engine, "sweep");
}

}  // namespace
}  // namespace kcc
