#include "io/result_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "cpm/cpm.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::make_graph;

TEST(ResultIo, WriterTextIsPinned) {
  // Triangles {0,1,2} and {1,2,3} with a pendant edge {3,4}, isolated
  // node 5, and a second component, the edge {6,7}.
  const Graph g = make_graph(
      8, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {6, 7}});
  const CpmResult result = run_cpm(g);
  std::ostringstream out;
  write_cpm_result(out, result);
  EXPECT_EQ(out.str(),
            "kcc-cpm-result 1\n"
            "meta 2 3 4 8\n"
            "clique 0 6 7\n"
            "clique 1 3 4\n"
            "clique 2 1 2 3\n"
            "clique 3 0 1 2\n"
            "set 2 2\n"
            "community 2 0 nodes 0 1 2 3 4 cliques 1 2 3\n"
            "community 2 1 nodes 6 7 cliques 0\n"
            "set 3 1\n"
            "community 3 0 nodes 0 1 2 3 cliques 2 3\n");

  const std::string path = ::testing::TempDir() + "/kcc_result.txt";
  write_cpm_result_file(path, result);
  std::ifstream in(path);
  std::ostringstream file;
  file << in.rdbuf();
  EXPECT_EQ(file.str(), out.str());
  EXPECT_THROW(write_cpm_result_file("/nonexistent/result.txt", result),
               Error);
}

TEST(ResultIo, EmptyResultRejected) {
  CpmResult empty;
  empty.min_k = 2;
  empty.max_k = 1;
  std::ostringstream out;
  EXPECT_THROW(write_cpm_result(out, empty), Error);
}

}  // namespace
}  // namespace kcc
