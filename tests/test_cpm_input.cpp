// Hostile clique tables through the engines' table entries: a clique naming
// a node outside the graph must fail with kcc::Error naming the node and the
// node count, in every entry that accepts a pre-enumerated table, before any
// engine indexes a per-node array with it.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "cpm/almost_cpm.h"
#include "cpm/cpm.h"
#include "cpm/sweep_cpm.h"
#include "test_helpers.h"

namespace kcc {
namespace {

using testing::complete_graph;

using TableEntry = CpmResult (*)(const Graph&, std::vector<NodeSet>);

// The table entries cpm::Engine calls after enumeration, plus both
// prejoined sweep entries: the flat pair vector and the pair source the
// incremental engine materializes through.
const std::vector<std::pair<std::string, TableEntry>>& table_entries() {
  static const std::vector<std::pair<std::string, TableEntry>> entries{
      {"run_sweep_cpm_on_cliques",
       [](const Graph& g, std::vector<NodeSet> table) {
         return run_sweep_cpm_on_cliques(g, std::move(table)).cpm;
       }},
      {"run_sweep_cpm_prejoined",
       [](const Graph& g, std::vector<NodeSet> table) {
         return run_sweep_cpm_prejoined(g, std::move(table),
                                        std::vector<CliqueOverlap>{})
             .cpm;
       }},
      {"run_sweep_cpm_prejoined (pair source)",
       [](const Graph& g, std::vector<NodeSet> table) {
         return run_sweep_cpm_prejoined(g.num_nodes(), std::move(table),
                                        [](std::size_t, OverlapSink&) {})
             .cpm;
       }},
      {"run_cpm_on_cliques",
       [](const Graph& g, std::vector<NodeSet> table) {
         return run_cpm_on_cliques(g, std::move(table));
       }},
      {"run_almost_cpm_on_cliques",
       [](const Graph& g, std::vector<NodeSet> table) {
         return run_almost_cpm_on_cliques(g, std::move(table)).cpm;
       }},
  };
  return entries;
}

TEST(CpmInput, CliqueNodesOutsideTheGraphAreRejectedByEveryEntry) {
  const Graph triangle = complete_graph(3);
  // One in-range clique next to one that is not (reaches the k >= 3
  // joins), and a lone out-of-range edge clique (reaches only the k = 2
  // components).
  const std::vector<std::vector<NodeSet>> tables{
      {{0, 1, 2}, {1, 2, 900000}},
      {{500000, 900000}},
  };
  for (const auto& [name, entry] : table_entries()) {
    for (const std::vector<NodeSet>& table : tables) {
      try {
        entry(triangle, table);
        ADD_FAILURE() << name << ": expected kcc::Error";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("clique node 900000 is out of range for a "
                            "graph of 3 nodes"),
                  std::string::npos)
            << name << ": " << what;
      }
    }
  }
}

TEST(CpmInput, InRangeTablesStillRun) {
  const Graph triangle = complete_graph(3);
  for (const auto& [name, entry] : table_entries()) {
    const CpmResult result = entry(triangle, {{0, 1, 2}});
    ASSERT_TRUE(result.has_k(3)) << name;
    EXPECT_EQ(result.at(3).count(), 1u) << name;
  }
}

}  // namespace
}  // namespace kcc
