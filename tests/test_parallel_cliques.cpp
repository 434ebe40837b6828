// Enumerator::collect over a thread pool: identical to the sequential
// enumeration, contents and order, for every thread count and backend.
#include <gtest/gtest.h>

#include <span>
#include <tuple>

#include "clique/bron_kerbosch.h"
#include "clique/enumerator.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::random_graph;

class ParallelCliquesThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelCliquesThreads, MatchesSequentialExactly) {
  ThreadPool pool(GetParam());
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = random_graph(60, 0.15, seed);
    EXPECT_EQ(clique::Enumerator(g).collect(pool), maximal_cliques(g))
        << "seed " << seed << " threads " << GetParam();
  }
}

TEST_P(ParallelCliquesThreads, MinSizeRespected) {
  ThreadPool pool(GetParam());
  const Graph g = random_graph(50, 0.2, 3);
  clique::Options options;
  options.min_size = 3;
  EXPECT_EQ(clique::Enumerator(g, options).collect(pool),
            maximal_cliques(g, 3));
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, ParallelCliquesThreads,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelCliques, EmptyGraph) {
  ThreadPool pool(4);
  const Graph empty;
  EXPECT_TRUE(clique::Enumerator(empty).collect(pool).empty());
}

TEST(ParallelCliques, DenseGraph) {
  ThreadPool pool(4);
  const Graph g = random_graph(40, 0.6, 11);
  EXPECT_EQ(clique::Enumerator(g).collect(pool), maximal_cliques(g));
}

TEST(ParallelCliques, RepeatedRunsIdentical) {
  ThreadPool pool(8);
  const Graph g = random_graph(80, 0.1, 42);
  const clique::Enumerator e(g);
  const auto first = e.collect(pool);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(e.collect(pool), first);
  }
}

// ------------------------------------------- backend x thread-count matrix

class CliqueBackendMatrix
    : public ::testing::TestWithParam<std::tuple<clique::Backend, std::size_t>> {
};

// Every (backend, threads) cell must reproduce the sequential sparse
// enumeration exactly — contents and order — which is the property the
// cpm engines' byte-identical-output contract rests on.
TEST_P(CliqueBackendMatrix, MatchesSequentialSparseExactly) {
  const auto [backend, threads] = GetParam();
  ThreadPool pool(threads);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(60, 0.15, seed);
    clique::Options sparse;
    sparse.backend = clique::Backend::kSparse;
    const auto expected = clique::Enumerator(g, sparse).collect();

    clique::Options opts;
    opts.backend = backend;
    const clique::Enumerator e(g, opts);
    EXPECT_EQ(e.collect(pool), expected)
        << clique::backend_name(backend) << " threads " << threads
        << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendSweep, CliqueBackendMatrix,
    ::testing::Combine(::testing::Values(clique::Backend::kAuto,
                                         clique::Backend::kSparse,
                                         clique::Backend::kBitset),
                       ::testing::Values(1, 2, 4, 8)));

// Hub fallback: forcing a tiny universe cap makes most subproblems take the
// sparse fallback inside the bitset backend; the mixed run must still be
// identical to both pure kernels.
TEST(CliqueBackends, HubFallbackMatchesPureKernels) {
  ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(70, 0.2, seed);
    clique::Options sparse;
    sparse.backend = clique::Backend::kSparse;
    const auto expected = clique::Enumerator(g, sparse).collect();

    clique::Options mixed;
    mixed.backend = clique::Backend::kBitset;
    mixed.bitset_max_universe = 4;  // almost everything falls back
    const clique::Enumerator e(g, mixed);
    EXPECT_EQ(e.collect(), expected) << "seed " << seed;
    EXPECT_EQ(e.collect(pool), expected) << "seed " << seed << " (pool)";
  }
}

TEST(CliqueBatch, FlatBufferRoundTrip) {
  clique::CliqueBatch batch;
  EXPECT_TRUE(batch.empty());
  const NodeSet a{3, 5, 9};
  const NodeSet b{1};
  batch.add(a);
  batch.add(b);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(NodeSet(batch[0].begin(), batch[0].end()), a);
  EXPECT_EQ(NodeSet(batch[1].begin(), batch[1].end()), b);
  std::vector<NodeSet> replayed;
  batch.for_each([&](std::span<const NodeId> c) {
    replayed.emplace_back(c.begin(), c.end());
  });
  EXPECT_EQ(replayed, (std::vector<NodeSet>{a, b}));
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace kcc
