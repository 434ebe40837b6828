#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "io/dataset_io.h"
#include "io/dot_export.h"
#include "io/edge_list.h"
#include "test_helpers.h"

namespace kcc {
namespace {

TEST(EdgeList, ReadsSimpleFile) {
  std::istringstream in(
      "# AS-level topology\n"
      "100 200\n"
      "200 300\n"
      "\n"
      "100 300  # triangle closes\n");
  const LabeledGraph g = read_edge_list(in);
  EXPECT_EQ(g.graph.num_nodes(), 3u);
  EXPECT_EQ(g.graph.num_edges(), 3u);
  EXPECT_EQ(g.labels, (std::vector<std::uint64_t>{100, 200, 300}));
  EXPECT_TRUE(g.graph.has_edge(g.node_of(100), g.node_of(300)));
}

TEST(EdgeList, DropsSelfLoopsAndDuplicates) {
  std::istringstream in("1 1\n1 2\n2 1\n1 2\n");
  const LabeledGraph g = read_edge_list(in);
  EXPECT_EQ(g.graph.num_edges(), 1u);
  EXPECT_EQ(g.graph.num_nodes(), 2u);
}

TEST(EdgeList, MalformedLineThrows) {
  std::istringstream missing("1\n");
  EXPECT_THROW(read_edge_list(missing), Error);
  std::istringstream trailing("1 2 3\n");
  EXPECT_THROW(read_edge_list(trailing), Error);
}

TEST(EdgeList, UnknownLabelThrows) {
  std::istringstream in("1 2\n");
  const LabeledGraph g = read_edge_list(in);
  EXPECT_THROW(g.node_of(7), Error);
}

TEST(EdgeList, RoundTrip) {
  std::istringstream in("10 20\n20 30\n10 40\n");
  const LabeledGraph g = read_edge_list(in);
  std::ostringstream out;
  write_edge_list(out, g);
  std::istringstream in2(out.str());
  const LabeledGraph g2 = read_edge_list(in2);
  EXPECT_EQ(g.labels, g2.labels);
  EXPECT_EQ(g.graph.edges(), g2.graph.edges());
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/graph.txt"), Error);
}

/// What read_edge_list must produce from a list of label pairs: sorted
/// unique labels of the non-loop edges, and each dense node's sorted
/// neighbours, derived with std::set.
struct NaiveLoad {
  std::vector<std::uint64_t> labels;
  std::vector<std::vector<NodeId>> adjacency;
};

NaiveLoad naive_load(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& edges) {
  std::set<std::uint64_t> labels;
  std::set<std::pair<std::uint64_t, std::uint64_t>> arcs;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    labels.insert(u);
    labels.insert(v);
    arcs.emplace(u, v);
    arcs.emplace(v, u);
  }
  NaiveLoad out;
  out.labels.assign(labels.begin(), labels.end());
  out.adjacency.resize(out.labels.size());
  const auto dense = [&out](std::uint64_t label) {
    return static_cast<NodeId>(
        std::lower_bound(out.labels.begin(), out.labels.end(), label) -
        out.labels.begin());
  };
  for (const auto& [u, v] : arcs) out.adjacency[dense(u)].push_back(dense(v));
  return out;
}

void expect_loaded(const LabeledGraph& g, const NaiveLoad& expected) {
  EXPECT_EQ(g.labels, expected.labels);
  ASSERT_EQ(g.graph.num_nodes(), expected.adjacency.size());
  std::size_t arcs = 0;
  for (NodeId v = 0; v < g.graph.num_nodes(); ++v) {
    const auto adj = g.graph.neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(adj.begin(), adj.end()),
              expected.adjacency[v])
        << "node " << v;
    arcs += expected.adjacency[v].size();
  }
  EXPECT_EQ(g.graph.num_edges() * 2, arcs);
}

/// A label whose four 16-bit groups are each drawn from a few values, so
/// labels collide in some groups and differ in others, and every radix
/// pass reorders something.
std::uint64_t grouped_label(std::mt19937_64& rng) {
  static constexpr std::uint64_t kGroup[] = {0, 1, 0x7fff, 0xffff};
  std::uint64_t label = 0;
  for (int group = 0; group < 4; ++group) {
    const std::uint64_t bits =
        rng() % 2 == 0 ? kGroup[rng() % 4] : rng() & 0xffff;
    label |= bits << (16 * group);
  }
  return label;
}

/// Writes `edges` as an edge list with the formatting the reader accepts:
/// tabs and runs of spaces, CRLF endings, comments, blank lines, and no
/// newline after the last line.
std::string format_edge_list(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& edges,
    std::mt19937_64& rng) {
  std::string text;
  for (const auto& [u, v] : edges) {
    switch (rng() % 8) {
      case 0: text += "# a comment line\n"; break;
      case 1: text += "\n"; break;
      case 2: text += "  \t \r\n"; break;
      default: break;
    }
    const char* sep = rng() % 2 == 0 ? " " : "\t  ";
    text += std::to_string(u) + sep + std::to_string(v);
    if (rng() % 4 == 0) text += "  # trailing comment";
    text += rng() % 3 == 0 ? "\r\n" : "\n";
  }
  if (!text.empty() && text.back() == '\n') text.pop_back();
  if (!text.empty() && text.back() == '\r') text.pop_back();
  return text;
}

TEST(EdgeList, LoadMatchesNaiveReferenceOnRandomLists) {
  std::mt19937_64 rng(424242);
  for (int round = 0; round < 60; ++round) {
    // Small pools force duplicates and shared labels; the large rounds
    // carry enough endpoints that every 16-bit bucket sees traffic.
    const std::size_t pool_size = 2 + rng() % (round < 50 ? 40 : 4000);
    std::vector<std::uint64_t> pool(pool_size);
    for (std::uint64_t& label : pool) label = grouped_label(rng);
    pool[0] = std::numeric_limits<std::uint64_t>::max();
    pool[1] = 0;
    const std::size_t m = rng() % (round < 50 ? 120 : 20000);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t u = pool[rng() % pool_size];
      const std::uint64_t v = rng() % 10 == 0 ? u : pool[rng() % pool_size];
      edges.emplace_back(u, v);
      if (rng() % 4 == 0) edges.emplace_back(v, u);  // reversed duplicate
      if (rng() % 6 == 0) edges.emplace_back(u, v);  // same-way duplicate
    }
    std::shuffle(edges.begin(), edges.end(), rng);
    std::istringstream in(format_edge_list(edges, rng));
    expect_loaded(read_edge_list(in), naive_load(edges));
  }
}

TEST(EdgeList, LoadsSmallLabelsInOnePassAndHugeLabelsInFour) {
  // Labels below 2^16 need only the first radix pass; labels at the top of
  // the range need all four, with the order decided by the highest group.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> edges{
      {65535, 3}, {3, 0}, {0, 65535}, {7, 3}};
  std::istringstream small("65535 3\n3 0\n0 65535\n7 3\n");
  expect_loaded(read_edge_list(small), naive_load(edges));

  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> huge{
      {kMax, 1}, {kMax - 1, 1ull << 48}, {1ull << 32, 1ull << 16},
      {(1ull << 48) + 1, kMax}, {0xffff, 1ull << 16}};
  std::ostringstream text;
  for (const auto& [u, v] : huge) text << u << ' ' << v << '\n';
  std::istringstream in(text.str());
  expect_loaded(read_edge_list(in), naive_load(huge));
}

TEST(EdgeList, EmptyInputsLoadTheEmptyGraph) {
  for (const char* text : {"", "\n", "# only a comment\n\n", "5 5\n",
                           "  \t\r\n# x\n7 7"}) {
    std::istringstream in(text);
    const LabeledGraph g = read_edge_list(in);
    EXPECT_TRUE(g.labels.empty()) << text;
    EXPECT_EQ(g.graph.num_nodes(), 0u) << text;
    EXPECT_EQ(g.graph.num_edges(), 0u) << text;
  }
}

TEST(EdgeList, ErrorLineNumbersDeepInALargeInput) {
  constexpr std::size_t kLines = 60000;
  const std::pair<const char*, const char*> bad_lines[] = {
      {"12 abc", "non-numeric node id on line 60001: 'abc'"},
      {"1 99999999999999999999", "node id out of range on line 60001"},
      {"1 2 3", "expected 'u v' on line 60001, got 3 token(s)"},
      {"42", "expected 'u v' on line 60001, got 1 token(s)"}};
  for (const auto& [bad, message] : bad_lines) {
    std::string text;
    for (std::size_t i = 0; i < kLines; ++i) {
      text += std::to_string(i * 65537) + '\t' + std::to_string(i + 1) +
              (i % 2 == 0 ? "\r\n" : "\n");
    }
    text += std::string(bad) + "\r\n" + "1 2\n";
    std::istringstream in(text);
    try {
      read_edge_list(in);
      ADD_FAILURE() << "no error for '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(EdgeList, IdentityLabels) {
  const LabeledGraph g = with_identity_labels(testing::complete_graph(4));
  EXPECT_EQ(g.labels, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(g.node_of(2), 2u);
}

LabeledGraph five_node_graph() {
  std::istringstream in("1 2\n2 3\n3 4\n4 5\n");
  return read_edge_list(in);
}

TEST(IxpIo, ReadAndWrite) {
  const LabeledGraph g = five_node_graph();
  std::istringstream in(
      "# name country members\n"
      "AMSIX NL 1,2,3\n"
      "WIX NZ 4,5\n");
  const IxpDataset ixps = read_ixp_dataset(in, g);
  ASSERT_EQ(ixps.count(), 2u);
  EXPECT_EQ(ixps.ixp(0).name, "AMSIX");
  EXPECT_EQ(ixps.ixp(0).country, "NL");
  EXPECT_EQ(ixps.ixp(0).participants.size(), 3u);
  EXPECT_TRUE(ixps.is_on_ixp(g.node_of(4)));

  std::ostringstream out;
  write_ixp_dataset(out, ixps, g);
  std::istringstream in2(out.str());
  const IxpDataset round = read_ixp_dataset(in2, g);
  EXPECT_EQ(round.count(), 2u);
  EXPECT_EQ(round.ixp(1).participants, ixps.ixp(1).participants);
}

TEST(IxpIo, MalformedThrows) {
  const LabeledGraph g = five_node_graph();
  std::istringstream missing_members("AMSIX NL\n");
  EXPECT_THROW(read_ixp_dataset(missing_members, g), Error);
  std::istringstream bad_number("AMSIX NL 1,x\n");
  EXPECT_THROW(read_ixp_dataset(bad_number, g), Error);
  std::istringstream unknown_as("AMSIX NL 99\n");
  EXPECT_THROW(read_ixp_dataset(unknown_as, g), Error);
}

TEST(GeoIo, ReadAndWrite) {
  const LabeledGraph g = five_node_graph();
  std::istringstream countries(
      "NL EU\n"
      "US NA\n");
  std::istringstream geo_lines(
      "1 NL\n"
      "2 NL,US\n"
      "3 US\n");
  const GeoDataset geo = read_geo_dataset(countries, geo_lines, g);
  EXPECT_EQ(geo.country_count(), 2u);
  EXPECT_EQ(geo.locations_of(g.node_of(2)).size(), 2u);
  EXPECT_TRUE(geo.locations_of(g.node_of(4)).empty());
  EXPECT_EQ(geo.known_node_count(), 3u);

  std::ostringstream countries_out, geo_out;
  write_geo_dataset(countries_out, geo_out, geo, g);
  std::istringstream countries_in2(countries_out.str());
  std::istringstream geo_in2(geo_out.str());
  const GeoDataset round = read_geo_dataset(countries_in2, geo_in2, g);
  EXPECT_EQ(round.known_node_count(), 3u);
  EXPECT_EQ(round.locations_of(g.node_of(2)),
            geo.locations_of(g.node_of(2)));
}

TEST(GeoIo, UnknownCountryThrows) {
  const LabeledGraph g = five_node_graph();
  std::istringstream countries("NL EU\n");
  std::istringstream geo_lines("1 XX\n");
  EXPECT_THROW(read_geo_dataset(countries, geo_lines, g), Error);
}

TEST(GraphDot, ContainsAllEdges) {
  std::ostringstream os;
  write_graph_dot(os, testing::make_graph(3, {{0, 1}, {1, 2}}));
  const std::string dot = os.str();
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -- n2"), std::string::npos);
}

}  // namespace
}  // namespace kcc
