#include "io/result_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "cpm/cpm.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::overlapping_cliques;
using testing::random_graph;

void expect_equal_results(const CpmResult& a, const CpmResult& b) {
  ASSERT_EQ(a.min_k, b.min_k);
  ASSERT_EQ(a.max_k, b.max_k);
  ASSERT_EQ(a.cliques, b.cliques);
  for (std::size_t k = a.min_k; k <= a.max_k; ++k) {
    const auto& sa = a.at(k);
    const auto& sb = b.at(k);
    ASSERT_EQ(sa.count(), sb.count()) << "k " << k;
    for (std::size_t i = 0; i < sa.count(); ++i) {
      EXPECT_EQ(sa.communities[i].nodes, sb.communities[i].nodes);
      EXPECT_EQ(sa.communities[i].clique_ids, sb.communities[i].clique_ids);
      EXPECT_EQ(sa.communities[i].k, sb.communities[i].k);
      EXPECT_EQ(sa.communities[i].id, sb.communities[i].id);
    }
    EXPECT_EQ(clique_community_map(sa, a.cliques.size()),
              clique_community_map(sb, b.cliques.size()));
  }
}

TEST(ResultIo, RoundTripSmallGraph) {
  const Graph g = overlapping_cliques(5, 5, 3);
  const CpmResult original = run_cpm(g);
  std::ostringstream out;
  write_cpm_result(out, original);
  std::istringstream in(out.str());
  std::size_t num_nodes = 0;
  const CpmResult loaded = read_cpm_result(in, &num_nodes);
  expect_equal_results(original, loaded);
  EXPECT_EQ(num_nodes, 7u);
}

TEST(ResultIo, RoundTripRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = random_graph(30, 0.25, seed);
    const CpmResult original = run_cpm(g);
    if (original.max_k < original.min_k) continue;
    std::ostringstream out;
    write_cpm_result(out, original);
    std::istringstream in(out.str());
    expect_equal_results(original, read_cpm_result(in));
  }
}

TEST(ResultIo, EmptyResultRejected) {
  CpmResult empty;
  empty.min_k = 2;
  empty.max_k = 1;
  std::ostringstream out;
  EXPECT_THROW(write_cpm_result(out, empty), Error);
}

TEST(ResultIo, BadMagicRejected) {
  std::istringstream in("not-a-result 1\n");
  EXPECT_THROW(read_cpm_result(in), Error);
}

TEST(ResultIo, BadVersionRejected) {
  std::istringstream in("kcc-cpm-result 99\nmeta 2 3 0 0\n");
  EXPECT_THROW(read_cpm_result(in), Error);
}

TEST(ResultIo, TruncatedFileRejected) {
  const Graph g = overlapping_cliques(4, 4, 2);
  const CpmResult original = run_cpm(g);
  std::ostringstream out;
  write_cpm_result(out, original);
  const std::string text = out.str();
  std::istringstream in(text.substr(0, text.size() / 2));
  EXPECT_THROW(read_cpm_result(in), Error);
}

TEST(ResultIo, CorruptCliqueRejected) {
  std::istringstream in(
      "kcc-cpm-result 1\n"
      "meta 2 2 1 3\n"
      "clique 0 2 1\n"  // unsorted
      "set 2 0\n");
  EXPECT_THROW(read_cpm_result(in), Error);
}

TEST(ResultIo, FileRoundTrip) {
  const Graph g = overlapping_cliques(5, 4, 2);
  const CpmResult original = run_cpm(g);
  const std::string path = ::testing::TempDir() + "/kcc_result.txt";
  write_cpm_result_file(path, original);
  const CpmResult loaded = read_cpm_result_file(path);
  expect_equal_results(original, loaded);
  EXPECT_THROW(read_cpm_result_file("/nonexistent/result.txt"), Error);
}

}  // namespace
}  // namespace kcc
