// The budgeted sweep: under CpmOptions::memory_budget the overlap buckets
// spill to disk whole and are streamed back one level at a time. Holds it
// to the per-k oracle on the graph/seed matrix the unbudgeted sweep is
// held to, and pins the budget surface — unit parsing, the spill-chunk
// floor, byte-identity with the unbudgeted run, the prejoined path, stats
// and the spill directory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "clique/parallel_cliques.h"
#include "common/error.h"
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
using testing::expect_nesting;
using testing::expect_same_cpm;
using testing::expect_same_tree;
using testing::overlapping_cliques;
using testing::preferential_attachment_graph;
using testing::random_graph;

// The sweep under the smallest accepted budget against the per-k oracle
// and the unbudgeted sweep (communities, ids, clique maps and tree).
// Returns how many pairs the budgeted run spilled.
std::uint64_t check_budgeted(const Graph& g, const std::string& label,
                             CpmOptions options = {}) {
  const CpmResult oracle = run_cpm(g, options);
  const SweepCpmResult free_run = run_sweep_cpm(g, options);
  options.memory_budget = sweep_min_memory_budget();
  const SweepCpmResult budgeted = run_sweep_cpm(g, options);
  expect_same_cpm(oracle, budgeted.cpm, label);
  expect_same_tree(free_run.tree, budgeted.tree, label);
  EXPECT_EQ(free_run.stats.pairs, budgeted.stats.pairs) << label;
  if (budgeted.cpm.max_k >= budgeted.cpm.min_k) {
    expect_nesting(budgeted.cpm, budgeted.tree, label);
  }
  return budgeted.stats.spilled_pairs;
}

// ------------------------------------------ budgeted sweep vs per-k oracle

TEST(SweepCpmBudget, MatchesOracleOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_budgeted(random_graph(60, 0.2, seed),
                   "random n=60 p=0.2 seed=" + std::to_string(seed));
  }
  // Dense enough that the pair store outgrows the budget and spills.
  for (std::uint64_t seed = 5; seed <= 6; ++seed) {
    EXPECT_GT(check_budgeted(random_graph(80, 0.5, seed),
                             "random n=80 p=0.5 seed=" + std::to_string(seed)),
              0u);
  }
}

TEST(SweepCpmBudget, MatchesOracleOnScaleFreeGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    check_budgeted(preferential_attachment_graph(150, 4, seed),
                   "pa n=150 m=4 seed=" + std::to_string(seed));
  }
}

TEST(SweepCpmBudget, MatchesOracleOnSyntheticEcosystem) {
  SynthParams params = SynthParams::test_scale();
  for (std::uint64_t seed : {7u, 42u}) {
    params.seed = seed;
    const Graph g = generate_ecosystem(params).topology.graph;
    check_budgeted(g, "synth seed=" + std::to_string(seed));
  }
}

TEST(SweepCpmBudget, MatchesOracleWithRestrictedKRange) {
  const Graph g = random_graph(80, 0.5, 9);
  for (std::size_t min_k : {3u, 6u}) {
    CpmOptions options;
    options.min_k = min_k;
    check_budgeted(g, "min_k=" + std::to_string(min_k), options);
    options.max_k = min_k + 2;
    check_budgeted(g, "k in [" + std::to_string(min_k) + ", +2]", options);
  }
}

// ------------------------------------------------- budget surface + spill

TEST(SweepCpmBudget, ParsesMemoryBudgetUnits) {
  EXPECT_EQ(parse_memory_budget("0"), 0u);
  EXPECT_EQ(parse_memory_budget("65536"), 65536u);
  EXPECT_EQ(parse_memory_budget("64K"), 64u * 1024);
  EXPECT_EQ(parse_memory_budget("64k"), 64u * 1024);
  EXPECT_EQ(parse_memory_budget("200M"), 200u * 1024 * 1024);
  EXPECT_EQ(parse_memory_budget("1G"), 1024ull * 1024 * 1024);
  EXPECT_EQ(parse_memory_budget("3g"), 3ull * 1024 * 1024 * 1024);
}

TEST(SweepCpmBudget, RejectsMalformedMemoryBudgets) {
  EXPECT_THROW(parse_memory_budget(""), Error);
  EXPECT_THROW(parse_memory_budget("K"), Error);
  EXPECT_THROW(parse_memory_budget("12X"), Error);
  EXPECT_THROW(parse_memory_budget("64KB"), Error);
  EXPECT_THROW(parse_memory_budget("1.5G"), Error);
  EXPECT_THROW(parse_memory_budget("-1M"), Error);
  EXPECT_THROW(parse_memory_budget("99999999999999999999"), Error);
  EXPECT_THROW(parse_memory_budget("17179869184G"), Error);
}

TEST(SweepCpmBudget, RejectsBudgetSmallerThanTheSpillChunk) {
  // A budget that cannot stage even one reload chunk must fail loudly at
  // entry, not thrash or silently ignore the cap.
  CpmOptions options;
  options.memory_budget = sweep_min_memory_budget() - 1;
  EXPECT_THROW(run_sweep_cpm(complete_graph(4), options), Error);
  options.memory_budget = 1024;
  try {
    run_sweep_cpm(complete_graph(4), options);
    FAIL() << "expected kcc::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "run_sweep_cpm_on_cliques: --memory-budget 1024 is smaller "
              "than the spill chunk (65536 bytes); raise the budget or use 0 "
              "for unlimited");
  }
  // The floor itself is accepted.
  options.memory_budget = sweep_min_memory_budget();
  EXPECT_NO_THROW(run_sweep_cpm(complete_graph(4), options));
}

TEST(SweepCpmBudget, SpillingEveryBucketLeavesTheOutputByteIdentical) {
  // Dense enough that the pair store far exceeds one spill chunk, with
  // every overlap value present before the last spill.
  const Graph g = random_graph(80, 0.5, 5);
  cpm::Options options;
  const cpm::Result unlimited = cpm::Engine(options).run(g);
  options.memory_budget = sweep_min_memory_budget();
  const cpm::Result budgeted = cpm::Engine(options).run(g);
  EXPECT_EQ(cpm::canonical_text(unlimited), cpm::canonical_text(budgeted));
  const CpmResult oracle = run_cpm(g, {});
  expect_same_cpm(oracle, budgeted.cpm, "spilling run");

  CpmOptions direct;
  const SweepCpmResult free_run = run_sweep_cpm(g, direct);
  EXPECT_EQ(free_run.stats.spilled_pairs, 0u);
  EXPECT_EQ(free_run.stats.spilled_buckets, 0u);
  direct.memory_budget = sweep_min_memory_budget();
  const SweepCpmResult spilled = run_sweep_cpm(g, direct);
  EXPECT_EQ(spilled.stats.pairs, free_run.stats.pairs);
  EXPECT_GT(spilled.stats.buckets, 1u);
  EXPECT_EQ(spilled.stats.spilled_buckets, spilled.stats.buckets);
  EXPECT_GT(spilled.stats.spilled_pairs, 0u);
  EXPECT_LE(spilled.stats.spilled_pairs, spilled.stats.pairs);
  EXPECT_EQ(spilled.stats.spill_bytes, spilled.stats.spilled_pairs * 8);
  EXPECT_LE(spilled.stats.resident_pair_bytes_peak,
            sweep_min_memory_budget() + 8);
  EXPECT_EQ(free_run.stats.resident_pair_bytes_peak, free_run.stats.pairs * 8);
}

TEST(SweepCpmBudget, PrejoinedPairsHonorTheBudget) {
  const Graph g = random_graph(80, 0.5, 5);
  ThreadPool pool(2);
  const std::vector<NodeSet> cliques = parallel_maximal_cliques(g, pool, 2);
  CpmOptions options;
  const SweepCpmResult free_run = run_sweep_cpm_prejoined(
      g, cliques, compute_clique_overlaps(cliques, g.num_nodes(), 2, pool),
      options);
  options.memory_budget = sweep_min_memory_budget();
  const SweepCpmResult spilled = run_sweep_cpm_prejoined(
      g, cliques, compute_clique_overlaps(cliques, g.num_nodes(), 2, pool),
      options);
  EXPECT_GT(spilled.stats.spilled_pairs, 0u);
  expect_same_cpm(free_run.cpm, spilled.cpm, "prejoined spill");
  expect_same_tree(free_run.tree, spilled.tree, "prejoined spill");
}

TEST(SweepCpmBudget, StatsReportPairsAndPeak) {
  const Graph g = overlapping_cliques(6, 5, 3);
  const SweepCpmResult sweep = run_sweep_cpm(g, {});
  // Two overlapping maximal cliques -> exactly one overlap pair.
  EXPECT_EQ(sweep.stats.pairs, 1u);
  EXPECT_EQ(sweep.stats.buckets, 1u);
  EXPECT_EQ(sweep.stats.resident_pair_bytes_peak, 8u);
  EXPECT_EQ(sweep.stats.spilled_pairs, 0u);
}

TEST(SweepCpmBudget, SpillDirIsUsedAndCleanedUp) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("kcc-sweep-test-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  CpmOptions options;
  options.memory_budget = sweep_min_memory_budget();
  options.spill_dir = dir.string();
  const SweepCpmResult spilled =
      run_sweep_cpm(random_graph(80, 0.5, 5), options);
  EXPECT_GT(spilled.stats.spilled_pairs, 0u);
  // The per-run subdirectory and its spill files are gone.
  EXPECT_TRUE(fs::is_empty(dir));

  // A spill directory that cannot be created (its parent is a regular
  // file) fails with kcc::Error naming it, not a filesystem exception.
  const fs::path file = dir / "not-a-directory";
  std::ofstream(file) << "x";
  options.spill_dir = file.string();
  try {
    run_sweep_cpm(random_graph(80, 0.5, 5), options);
    ADD_FAILURE() << "expected kcc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(file.string()), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace kcc
