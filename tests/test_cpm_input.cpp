// Hostile clique tables through Engine::run_on_cliques: a clique naming a
// node outside the graph must fail with kcc::Error naming the node and the
// node count, in every engine that accepts a pre-enumerated table, before
// any engine indexes a per-node array with it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "cpm/engine.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;

TEST(CpmInput, CliqueNodesOutsideTheGraphAreRejectedByEveryEngine) {
  const Graph triangle = complete_graph(3);
  // One in-range clique next to one that is not (reaches the k >= 3 joins
  // and the incremental bootstrap), and a lone out-of-range edge clique
  // (reaches only the k = 2 components).
  const std::vector<std::vector<NodeSet>> tables{
      {{0, 1, 2}, {1, 2, 900000}},
      {{500000, 900000}},
  };
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    if (!info.caps.supports_run_on_cliques) continue;
    cpm::Options options;
    options.engine = info.name;
    const cpm::Engine engine(options);
    for (const std::vector<NodeSet>& table : tables) {
      try {
        engine.run_on_cliques(triangle, table);
        ADD_FAILURE() << info.name << ": expected kcc::Error";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("clique node 900000 is out of range for a "
                            "graph of 3 nodes"),
                  std::string::npos)
            << info.name << ": " << what;
      }
    }
  }
}

TEST(CpmInput, InRangeTablesStillRun) {
  const Graph triangle = complete_graph(3);
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    if (!info.caps.supports_run_on_cliques) continue;
    cpm::Options options;
    options.engine = info.name;
    const cpm::Result result =
        cpm::Engine(options).run_on_cliques(triangle, {{0, 1, 2}});
    ASSERT_TRUE(result.cpm.has_k(3)) << info.name;
    EXPECT_EQ(result.cpm.at(3).count(), 1u) << info.name;
  }
}

}  // namespace
}  // namespace kcc
