// The almost_exact engine (Baudin et al. 2021 bounded-memory percolation)
// and the registry/similarity machinery it forced into the API:
//   * registry round-trip — every registered name parses, constructs an
//     Engine and runs on a smoke graph with correct provenance;
//   * Engine::run_on_cliques across all capable engines × clique backends;
//   * spill-dir validation at Engine::run entry;
//   * almost-exact semantics — coarsening of the exact partition, exact at
//     k=2, deterministic, nesting tree, F1 >= 0.99 on seeded families;
//   * cpm::compare_results unit behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "clique/parallel_cliques.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "cpm/almost_cpm.h"
#include "cpm/compare.h"
#include "cpm/engine.h"
#include "cpm/sweep_cpm.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;
using testing::expect_nesting;
using testing::make_graph;
using testing::overlapping_cliques;
using testing::random_graph;

cpm::Result run_engine(const std::string& engine, const Graph& g) {
  cpm::Options options;
  options.engine = engine;
  return cpm::Engine(options).run(g);
}

// Two K5s sharing `shared` nodes plus a pendant path — enough structure for
// several k levels but small enough for the reference engine.
Graph smoke_graph() { return overlapping_cliques(5, 5, 3); }

// ------------------------------------------------------------ registry

TEST(EngineRegistry, EveryRegisteredEngineRoundTrips) {
  const Graph g = smoke_graph();
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    // Name → info lookup round-trips.
    const cpm::EngineInfo* found = cpm::find_engine(info.name);
    ASSERT_NE(found, nullptr) << info.name;
    EXPECT_EQ(found->name, info.name);
    EXPECT_EQ(&cpm::engine_info(info.name), found) << info.name;
    EXPECT_FALSE(info.summary.empty()) << info.name;

    // Name → Engine → Result round-trips with provenance.
    cpm::Options options;
    options.engine = info.name;
    const cpm::Engine engine(options);
    EXPECT_EQ(engine.info().name, info.name);
    const cpm::Result result = engine.run(g);
    EXPECT_EQ(result.engine_name, info.name);
    EXPECT_EQ(result.exactness == cpm::Exactness::kExact, info.caps.exact)
        << info.name;
    EXPECT_GE(result.cpm.max_k, 5u) << info.name;
    ASSERT_TRUE(result.cpm.has_k(5)) << info.name;
    EXPECT_EQ(result.cpm.at(5).count(), 2u) << info.name;
  }
  EXPECT_NE(cpm::engine_names_joined().find("almost_exact"),
            std::string::npos);
}

TEST(EngineRegistry, RunOnCliquesAgreesAcrossEnginesAndBackends) {
  const Graph g = random_graph(40, 0.35, 9);
  ThreadPool pool(2);
  const std::vector<NodeSet> cliques = parallel_maximal_cliques(g, pool, 2);

  cpm::Options baseline_options;
  baseline_options.engine = "per_k";
  const cpm::Result baseline =
      cpm::Engine(baseline_options).run_on_cliques(g, cliques);

  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    if (!info.caps.supports_run_on_cliques) {
      cpm::Options options;
      options.engine = info.name;
      EXPECT_THROW(cpm::Engine(options).run_on_cliques(g, cliques), Error)
          << info.name;
      continue;
    }
    cpm::Options options;
    options.engine = info.name;
    const cpm::Result result =
        cpm::Engine(options).run_on_cliques(g, cliques);
    EXPECT_EQ(result.engine_name, info.name);
    if (info.caps.exact) {
      if (info.caps.canonical_clique_order) {
        // The engine cannot preserve enumeration order (e.g. incremental);
        // compare both sides in canonical clique order instead.
        cpm::Result canon_result = result;
        cpm::Result canon_baseline = baseline;
        cpm::canonicalise_clique_order(canon_result);
        cpm::canonicalise_clique_order(canon_baseline);
        EXPECT_EQ(cpm::canonical_digest(canon_result),
                  cpm::canonical_digest(canon_baseline))
            << info.name;
      } else {
        EXPECT_EQ(cpm::canonical_digest(result),
                  cpm::canonical_digest(baseline))
            << info.name;
      }
    } else {
      const cpm::Comparison gap = cpm::compare_results(baseline, result);
      EXPECT_TRUE(gap.ok) << info.name << ": " << gap.summary;
    }
  }
}

TEST(EngineRegistry, RegisterEngineRejectsDuplicates) {
  cpm::EngineInfo dup;
  dup.name = "sweep";
  dup.summary = "clash";
  EXPECT_THROW(cpm::register_engine(dup), Error);
  cpm::EngineInfo anon;
  anon.summary = "unnamed";
  EXPECT_THROW(cpm::register_engine(anon), Error);
}

// ------------------------------------------------------ spill validation

TEST(EngineOptionsSpill, BadSpillDirFailsAtRunEntry) {
  cpm::Options options;
  options.engine = "sweep";
  options.spill_dir = "/nonexistent/kcc-spill-dir";
  const cpm::Engine engine(options);
  const Graph g = complete_graph(4);
  try {
    engine.run(g);
    FAIL() << "expected kcc::Error for a bad spill dir";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/kcc-spill-dir"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(engine.run_on_cliques(g, {{0, 1, 2, 3}}), Error);
}

TEST(EngineOptionsSpill, BudgetBelowTheSpillChunkFailsAtConstruction) {
  // Rejected by the Engine itself, before run() enumerates a single clique
  // (the sweep's own check would name run_sweep_cpm_on_cliques instead).
  cpm::Options options;
  options.engine = "sweep";
  options.memory_budget = 1024;
  try {
    const cpm::Engine engine(options);
    FAIL() << "expected kcc::Error for a budget below the spill chunk";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cpm::Engine: --memory-budget 1024 is smaller than the spill "
              "chunk (65536 bytes); raise the budget or use 0 for unlimited");
  }
  options.memory_budget = sweep_min_memory_budget();
  EXPECT_NO_THROW(cpm::Engine(options).run(complete_graph(4)));
  // Engines that ignore the budget do not reject it either.
  options.engine = "per_k";
  options.memory_budget = 1024;
  EXPECT_NO_THROW(cpm::Engine(options).run(complete_graph(4)));
}

TEST(EngineOptionsSpill, EnginesWithoutBudgetSupportIgnoreSpillDir) {
  // The flag is a sweep-only knob; engines that never spill must not
  // reject an unrelated path.
  cpm::Options options;
  options.engine = "per_k";
  options.spill_dir = "/nonexistent/kcc-spill-dir";
  const cpm::Result result = cpm::Engine(options).run(complete_graph(4));
  EXPECT_EQ(result.cpm.max_k, 4u);
}

// -------------------------------------------------------- almost_exact

TEST(AlmostCpm, ExactOnSingleCliqueAndAtK2) {
  // One maximal clique: nothing to percolate, trivially exact.
  const cpm::Result exact = run_engine("sweep", complete_graph(6));
  const cpm::Result almost = run_engine("almost_exact", complete_graph(6));
  const cpm::Comparison gap = cpm::compare_results(exact, almost);
  EXPECT_TRUE(gap.identical) << gap.summary;

  // k=2 is connected components — computed exactly by every engine.
  const Graph g = random_graph(60, 0.08, 3);
  const cpm::Result e2 = run_engine("sweep", g);
  const cpm::Result a2 = run_engine("almost_exact", g);
  ASSERT_TRUE(a2.cpm.has_k(2));
  EXPECT_EQ(a2.cpm.at(2).count(), e2.cpm.at(2).count());
  for (CommunityId id = 0; id < a2.cpm.at(2).count(); ++id) {
    EXPECT_EQ(a2.cpm.at(2).communities[id].nodes,
              e2.cpm.at(2).communities[id].nodes);
  }
}

TEST(AlmostCpm, CoarsensTheExactPartition) {
  // Over-approximation: almost_exact may merge exact communities but never
  // split them — every exact community must be contained in exactly one
  // almost community at the same k.
  const std::uint64_t seeds[] = {3, 11, 29};
  for (const std::uint64_t seed : seeds) {
    const Graph g = random_graph(50, 0.25, seed);
    const cpm::Result exact = run_engine("sweep", g);
    const cpm::Result almost = run_engine("almost_exact", g);
    ASSERT_EQ(exact.cpm.min_k, almost.cpm.min_k);
    ASSERT_EQ(exact.cpm.max_k, almost.cpm.max_k);
    for (std::size_t k = exact.cpm.min_k; k <= exact.cpm.max_k; ++k) {
      EXPECT_LE(almost.cpm.at(k).count(), exact.cpm.at(k).count())
          << "seed " << seed << " k=" << k;
      // Clique-partition coarsening: two cliques in the same exact
      // community must land in the same almost community.
      const CommunitySet& es = exact.cpm.at(k);
      const CommunitySet& as = almost.cpm.at(k);
      ASSERT_EQ(es.community_of_clique.size(),
                as.community_of_clique.size())
          << "seed " << seed << " k=" << k;
      for (const Community& c : es.communities) {
        ASSERT_FALSE(c.clique_ids.empty());
        const CommunityId expected =
            as.community_of_clique[c.clique_ids.front()];
        ASSERT_NE(expected, CommunitySet::kNoCommunity)
            << "seed " << seed << " k=" << k;
        for (const CliqueId id : c.clique_ids) {
          EXPECT_EQ(as.community_of_clique[id], expected)
              << "seed " << seed << " k=" << k << " clique " << id;
        }
        // And node-wise: the exact community sits inside that almost one.
        const Community& container = as.communities[expected];
        EXPECT_TRUE(std::includes(container.nodes.begin(),
                                  container.nodes.end(), c.nodes.begin(),
                                  c.nodes.end()))
            << "seed " << seed << " k=" << k << " community " << c.id;
      }
    }
  }
}

TEST(AlmostCpm, StaysWithinTheGapThresholdOnSeededFamilies) {
  struct Family {
    const char* name;
    Graph graph;
  };
  const Family families[] = {
      {"overlapping_cliques", overlapping_cliques(6, 5, 3)},
      {"random_60", random_graph(60, 0.25, 5)},
      {"preferential", testing::preferential_attachment_graph(80, 4, 17)},
  };
  for (const Family& family : families) {
    const cpm::Result exact = run_engine("sweep", family.graph);
    const cpm::Result almost = run_engine("almost_exact", family.graph);
    const cpm::Comparison gap = cpm::compare_results(exact, almost);
    EXPECT_GE(gap.worst_f1, 0.99) << family.name << ": " << gap.summary;
    EXPECT_TRUE(gap.ok) << family.name << ": " << gap.summary;
  }
}

TEST(AlmostCpm, DeterministicAndThreadInvariant) {
  const Graph g = random_graph(50, 0.3, 7);
  cpm::Options t1;
  t1.engine = "almost_exact";
  t1.threads = 1;
  cpm::Options t4 = t1;
  t4.threads = 4;
  const std::uint64_t a = cpm::canonical_digest(cpm::Engine(t1).run(g));
  const std::uint64_t b = cpm::canonical_digest(cpm::Engine(t1).run(g));
  const std::uint64_t c = cpm::canonical_digest(cpm::Engine(t4).run(g));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(AlmostCpm, TreeNestsAndCanBeDisabled) {
  const Graph g = random_graph(45, 0.3, 13);
  const cpm::Result almost = run_engine("almost_exact", g);
  ASSERT_TRUE(almost.has_tree);
  expect_nesting(almost.cpm, almost.tree, "almost tree");

  cpm::Options options;
  options.engine = "almost_exact";
  options.build_tree = false;
  EXPECT_FALSE(cpm::Engine(options).run(g).has_tree);
}

TEST(AlmostCpm, StatsCountTheWork) {
  const AlmostCpmResult result =
      run_almost_cpm(overlapping_cliques(5, 5, 3));
  EXPECT_GT(result.stats.candidate_checks, 0u);
  EXPECT_GT(result.stats.unions, 0u);
  EXPECT_GT(result.stats.membership_entries_peak, 0u);
}

TEST(AlmostCpm, CanonicalTextCarriesTheExactnessHeader) {
  const Graph g = complete_graph(3);
  const std::string exact_text = cpm::canonical_text(run_engine("sweep", g));
  const std::string almost_text =
      cpm::canonical_text(run_engine("almost_exact", g));
  EXPECT_EQ(exact_text.rfind("exactness exact\n", 0), 0u);
  EXPECT_EQ(almost_text.rfind("exactness almost_exact\n", 0), 0u);
}

// ------------------------------------------------------ compare_results

TEST(CompareResults, IdenticalResultsArePerfect) {
  const Graph g = smoke_graph();
  const cpm::Result a = run_engine("sweep", g);
  const cpm::Result b = run_engine("per_k", g);
  const cpm::Comparison gap = cpm::compare_results(a, b);
  EXPECT_TRUE(gap.identical);
  EXPECT_TRUE(gap.ok);
  EXPECT_DOUBLE_EQ(gap.worst_f1, 1.0);
  EXPECT_EQ(gap.levels.size(), a.cpm.max_k - a.cpm.min_k + 1);
}

TEST(CompareResults, KRangeMismatchFailsOutright) {
  const cpm::Result a = run_engine("sweep", complete_graph(5));
  const cpm::Result b = run_engine("sweep", complete_graph(3));
  const cpm::Comparison gap = cpm::compare_results(a, b);
  EXPECT_FALSE(gap.ok);
  EXPECT_DOUBLE_EQ(gap.worst_f1, 0.0);
  EXPECT_NE(gap.summary.find("k-range mismatch"), std::string::npos);
}

TEST(CompareResults, MergedCommunitiesScoreBelowOne) {
  // Doctor a candidate by merging the two k=5 communities into one — recall
  // stays high (each baseline community maps into the merged one) but
  // precision drops, so F1 lands strictly between 0 and 1.
  const Graph g = smoke_graph();
  const cpm::Result baseline = run_engine("sweep", g);
  cpm::Result merged = run_engine("sweep", g);
  CommunitySet& at5 = merged.cpm.by_k[5 - merged.cpm.min_k];
  ASSERT_EQ(at5.k, 5u);
  ASSERT_EQ(at5.count(), 2u);
  NodeSet all = at5.communities[0].nodes;
  all.insert(all.end(), at5.communities[1].nodes.begin(),
             at5.communities[1].nodes.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  at5.communities.resize(1);
  at5.communities[0].nodes = all;

  cpm::CompareOptions options;
  options.publish_metrics = false;
  const cpm::Comparison gap = cpm::compare_results(baseline, merged, options);
  EXPECT_FALSE(gap.identical);
  EXPECT_LT(gap.worst_f1, 1.0);
  EXPECT_GT(gap.worst_f1, 0.0);
  EXPECT_EQ(gap.worst_k, 5u);
}

}  // namespace
}  // namespace kcc
