// Malformed-input hardening for the loaders: every bad line in an edge
// list, a delta stream or an IXP/geo dataset must fail loudly with the
// offending line number (never be silently skipped or narrowed), and the
// CSV writer must reject structural misuse. Runs under the sanitize label
// so the parsers also get exercised under TSan/ASan.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "io/csv.h"
#include "io/dataset_io.h"
#include "io/delta_stream.h"
#include "io/edge_list.h"

namespace kcc {
namespace {

LabeledGraph parse(const std::string& text) {
  std::istringstream in(text);
  return read_edge_list(in);
}

std::string error_of(const std::string& text) {
  try {
    parse(text);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected read_edge_list to throw on: " << text;
  return "";
}

// ------------------------------------------------------------- edge lists

TEST(EdgeListMalformed, TruncatedLineThrowsWithLineNumber) {
  const std::string message = error_of("1 2\n3\n");
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("1 token"), std::string::npos) << message;
}

TEST(EdgeListMalformed, TrailingTokensThrow) {
  const std::string message = error_of("1 2 3\n");
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("3 token"), std::string::npos) << message;
}

TEST(EdgeListMalformed, NonNumericIdsThrow) {
  // These used to be silently skipped: operator>> failed on the first
  // token and the line was treated as blank. Now each is a hard error.
  for (const char* text :
       {"as7018 as3356\n", "1 x\n", "-1 2\n", "1.5 2\n", "0x10 2\n"}) {
    const std::string message = error_of(text);
    EXPECT_NE(message.find("line 1"), std::string::npos) << text << message;
  }
}

TEST(EdgeListMalformed, OverflowingIdThrows) {
  const std::string message = error_of("99999999999999999999999 1\n");
  EXPECT_NE(message.find("out of range"), std::string::npos) << message;
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
}

TEST(EdgeListMalformed, HugeButRepresentableIdsLoad) {
  // Labels near 2^64 are fine: they are remapped to dense ids.
  const LabeledGraph g = parse("18446744073709551615 7018\n");
  EXPECT_EQ(g.graph.num_nodes(), 2u);
  EXPECT_EQ(g.graph.num_edges(), 1u);
  EXPECT_EQ(g.node_of(18446744073709551615ull), 1u);
}

TEST(EdgeListMalformed, SelfLoopsAndDuplicatesAreDroppedSilently) {
  // The paper's "spurious data" cleaning: well-formed but redundant lines
  // are dropped, not errors.
  const LabeledGraph g = parse("1 1\n1 2\n2 1\n1 2\n");
  EXPECT_EQ(g.graph.num_nodes(), 2u);
  EXPECT_EQ(g.graph.num_edges(), 1u);
}

TEST(EdgeListMalformed, CommentsAndBlankLinesAreIgnored) {
  const LabeledGraph g =
      parse("# AS topology\n\n  \n1 2 # measured 2010-04\n# 3 4\n");
  EXPECT_EQ(g.graph.num_edges(), 1u);
}

TEST(EdgeListMalformed, GarbageAfterCommentStripIsStillChecked) {
  const std::string message = error_of("1 oops # comment\n");
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
}

// The exact text of each rejection, line number included.
TEST(EdgeListMalformed, RejectionMessagesAreExact) {
  EXPECT_EQ(error_of("1 2\nas7018 3356\n"),
            "read_edge_list: non-numeric node id on line 2: 'as7018'");
  EXPECT_EQ(error_of("1 2\n\n3 99999999999999999999\n"),
            "read_edge_list: node id out of range on line 3: "
            "'99999999999999999999'");
  EXPECT_EQ(error_of("# header\n1 2 3\n"),
            "read_edge_list: expected 'u v' on line 2, got 3 token(s)");
  EXPECT_EQ(error_of("7\n"),
            "read_edge_list: expected 'u v' on line 1, got 1 token(s)");
}

// ------------------------------------------------ tokenizer parity

/// The outcome of parsing one edge list: its edges as sorted label pairs,
/// or the error message.
struct Outcome {
  std::set<std::pair<std::uint64_t, std::uint64_t>> edges;
  std::string error;
};

Outcome outcome_of(const std::string& text) {
  Outcome out;
  try {
    const LabeledGraph g = parse(text);
    for (const auto& [u, v] : g.graph.edges()) {
      out.edges.emplace(g.labels[u], g.labels[v]);
    }
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

/// The edge-list parser as it was before it tokenized lines in place: one
/// std::istringstream and one vector of string tokens per line.
Outcome istringstream_outcome(const std::string& text) {
  Outcome out;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  const auto label = [&](const std::string& token) {
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::result_out_of_range) {
      throw Error("read_edge_list: node id out of range on line " +
                  std::to_string(line_no) + ": '" + token + "'");
    }
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      throw Error("read_edge_list: non-numeric node id on line " +
                  std::to_string(line_no) + ": '" + token + "'");
    }
    return value;
  };
  try {
    while (std::getline(in, line)) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream ls(line);
      std::vector<std::string> tokens;
      for (std::string token; ls >> token;) tokens.push_back(token);
      if (tokens.empty()) continue;
      if (tokens.size() != 2) {
        throw Error("read_edge_list: expected 'u v' on line " +
                    std::to_string(line_no) + ", got " +
                    std::to_string(tokens.size()) + " token(s)");
      }
      const std::uint64_t u = label(tokens[0]);
      const std::uint64_t v = label(tokens[1]);
      if (u != v) out.edges.emplace(std::min(u, v), std::max(u, v));
    }
  } catch (const Error& e) {
    out.edges.clear();
    out.error = e.what();
  }
  return out;
}

TEST(EdgeListTokenizer, MatchesTheIstringstreamParser) {
  const std::string cases[] = {
      "1 2\r\n3 4\r\n\r\n",               // CRLF line endings
      "1\t2\n3\t\t4\n",                    // tab-separated
      "1\v2\n3\f4\n5 \v\f\t6\n",          // vertical tab, form feed
      "   1 2\n3 4   \n\t 5 6 \t\n",        // leading/trailing space
      "1 2 # comment\n3 4# no space\n",      // trailing comment
      "\n\n   \n# only a comment\n\t#\n1 2\n",  // blank/comment lines
      "1 2\n2 1\n1 1\n",                    // duplicate and self-loop
      "+5 6\n",                               // explicit plus sign
      "-1 2\n",                               // negative id
      "1 99999999999999999999\n",             // 20-digit overflow
      "18446744073709551615 1\n",             // largest id
      "1 2 3\n",                              // three tokens
      "1\r\n",                                // one token before CR
      "1 2\r 3\n",                            // CR between tokens
      std::string("1\0 2\n", 5),             // NUL inside a token
      "1 2\n3 x\n",                          // error on a later line
      "",                                      // empty input
      "1 2",                                   // no final newline
  };
  for (const std::string& text : cases) {
    const Outcome expected = istringstream_outcome(text);
    const Outcome actual = outcome_of(text);
    EXPECT_EQ(actual.error, expected.error) << "input: " << text;
    EXPECT_EQ(actual.edges, expected.edges) << "input: " << text;
  }
}

TEST(EdgeListMalformed, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/nope.txt"), Error);
}

// ---------------------------------------------------------- delta streams

std::string delta_error_of(const std::string& text) {
  try {
    parse_delta_stream(text);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected parse_delta_stream to throw on: " << text;
  return "";
}

TEST(DeltaStreamMalformed, NegativeIdIsRejectedNotWrapped) {
  EXPECT_EQ(delta_error_of("nodes 4\nadd -1 2\n"),
            "delta stream line 2: node id '-1' is not a non-negative "
            "integer");
}

TEST(DeltaStreamMalformed, IdBeyondNodeIdIsRejectedNotNarrowed) {
  EXPECT_EQ(delta_error_of("add 4294967297 2\n"),
            "delta stream line 1: node id '4294967297' is larger than "
            "4294967295");
  EXPECT_EQ(delta_error_of("add 1 99999999999999999999\n"),
            "delta stream line 1: node id '99999999999999999999' is larger "
            "than 4294967295");
  EXPECT_EQ(delta_error_of("nodes 4294967297\n"),
            "delta stream line 1: node count '4294967297' is larger than "
            "4294967296");
}

TEST(DeltaStreamMalformed, TrailingTokenIsRejectedNotIgnored) {
  EXPECT_EQ(delta_error_of("# x\nadd 2 3 99\n"),
            "delta stream line 2: unexpected trailing token '99' after 'add'");
  EXPECT_EQ(delta_error_of("edge 0 1 # ok\nedge 1 2 3 4 5\n"),
            "delta stream line 2: unexpected trailing token '3' after 'edge'");
  EXPECT_EQ(delta_error_of("nodes 3 4\n"),
            "delta stream line 1: unexpected trailing token '4' after 'nodes'");
  EXPECT_EQ(delta_error_of("add 0 1\ncommit now\n"),
            "delta stream line 2: unexpected trailing token 'now' after "
            "'commit'");
}

TEST(DeltaStreamMalformed, MissingTokensAndUnknownOps) {
  EXPECT_EQ(delta_error_of("remove 3\n"),
            "delta stream line 1: 'remove' needs two node ids");
  EXPECT_EQ(delta_error_of("nodes\n"),
            "delta stream line 1: 'nodes' needs a count");
  EXPECT_EQ(delta_error_of("add x 2\n"),
            "delta stream line 1: node id 'x' is not a non-negative integer");
  EXPECT_EQ(delta_error_of("add +1 2\n"),
            "delta stream line 1: node id '+1' is not a non-negative integer");
  EXPECT_EQ(delta_error_of("flap 1 2\n"),
            "delta stream line 1: unknown op 'flap' "
            "(nodes|edge|add|remove|commit)");
  EXPECT_EQ(delta_error_of("add 0 1\nedge 1 2\n"),
            "delta stream line 2: 'edge' must precede the first batch op");
}

TEST(DeltaStream, RoundTripsThroughTheWriter) {
  const DeltaStream stream = parse_delta_stream(
      "#   nightly   AS feed\nnodes 8\nedge 0 1\nedge 1 2\n"
      "remove 0 1\nadd 2 3\ncommit\n\ncommit\nadd 4294967295 5\n");
  EXPECT_EQ(stream.name, "nightly AS feed");
  EXPECT_EQ(stream.num_nodes, 8u);
  ASSERT_EQ(stream.edges.size(), 2u);
  ASSERT_EQ(stream.batches.size(), 3u);  // trailing ops form a final batch
  EXPECT_TRUE(stream.batches[1].empty());
  EXPECT_EQ(stream.batches[2].add[0].first, 4294967295u);
  EXPECT_EQ(stream.base_graph().num_nodes(), 8u);
  EXPECT_EQ(parse_delta_stream(write_delta_stream(stream)).batches.size(), 3u);
  EXPECT_EQ(write_delta_stream(parse_delta_stream(write_delta_stream(stream))),
            write_delta_stream(stream));
  EXPECT_EQ(parse_delta_stream("").name, "delta");
}

// --------------------------------------------------------- IXP and geo data

// A three-AS graph (labels 10, 20, 30) the dataset readers resolve into.
const LabeledGraph& as_graph() {
  static const LabeledGraph g = parse("10 20\n20 30\n");
  return g;
}

std::string ixp_error_of(const std::string& text) {
  std::istringstream in(text);
  try {
    read_ixp_dataset(in, as_graph());
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected read_ixp_dataset to throw on: " << text;
  return "";
}

std::string geo_error_of(const std::string& countries,
                         const std::string& geo) {
  std::istringstream countries_in(countries);
  std::istringstream geo_in(geo);
  try {
    read_geo_dataset(countries_in, geo_in, as_graph());
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected read_geo_dataset to throw on: " << countries
                << " / " << geo;
  return "";
}

TEST(IxpDatasetMalformed, WellFormedLinesLoad) {
  std::istringstream in("# name country members\nIX-A DE 30,10 # c\n\n"
                        "IX-B NL 20\n");
  const IxpDataset ixps = read_ixp_dataset(in, as_graph());
  ASSERT_EQ(ixps.all().size(), 2u);
  EXPECT_EQ(ixps.all()[0].name, "IX-A");
  EXPECT_EQ(ixps.all()[0].participants, (std::vector<NodeId>{0, 2}));
}

TEST(IxpDatasetMalformed, SignedLabelsAreRejectedNotWrapped) {
  EXPECT_EQ(ixp_error_of("IX-A DE 10,-5\n"),
            "read_ixp_dataset line 1: AS label '-5' is not a non-negative "
            "integer");
  EXPECT_EQ(ixp_error_of("IX-A DE +10\n"),
            "read_ixp_dataset line 1: AS label '+10' is not a non-negative "
            "integer");
  EXPECT_EQ(ixp_error_of("IX-A DE 10x\n"),
            "read_ixp_dataset line 1: AS label '10x' is not a non-negative "
            "integer");
  EXPECT_EQ(ixp_error_of("IX-A DE 99999999999999999999\n"),
            "read_ixp_dataset line 1: AS label '99999999999999999999' is "
            "larger than 18446744073709551615");
}

TEST(IxpDatasetMalformed, TrailingTokenIsRejectedNotIgnored) {
  EXPECT_EQ(ixp_error_of("IX-A DE 10\nIX-B NL 20 30\n"),
            "read_ixp_dataset line 2: unexpected trailing token '30'");
}

TEST(IxpDatasetMalformed, MissingFieldsAreRejected) {
  EXPECT_EQ(ixp_error_of("IX-A DE\n"),
            "read_ixp_dataset line 1: expected 'name country "
            "label,label,...', got 2 field(s)");
}

TEST(IxpDatasetMalformed, UnknownLabelNamesReaderLineAndToken) {
  EXPECT_EQ(ixp_error_of("# header\nIX-A DE 10,40\n"),
            "read_ixp_dataset line 2: AS label '40' is not a node of the "
            "graph");
}

TEST(IxpDatasetMalformed, EmptyMemberItemsAreRejectedNotDropped) {
  EXPECT_EQ(ixp_error_of("IX-A DE 10,,20\n"),
            "read_ixp_dataset line 1: empty item in '10,,20'");
  EXPECT_EQ(ixp_error_of("IX-A DE 10\nIX-B NL ,\n"),
            "read_ixp_dataset line 2: empty item in ','");
  EXPECT_EQ(ixp_error_of("IX-A DE 10,\n"),
            "read_ixp_dataset line 1: empty item in '10,'");
  EXPECT_EQ(ixp_error_of("IX-A DE ,10\n"),
            "read_ixp_dataset line 1: empty item in ',10'");
}

TEST(GeoDatasetMalformed, WellFormedLinesLoad) {
  std::istringstream countries("DE EU\nUS NA # c\n");
  std::istringstream geo("10 DE,US\n\n30 US\n");
  const GeoDataset data = read_geo_dataset(countries, geo, as_graph());
  EXPECT_EQ(data.all_countries().size(), 2u);
  EXPECT_EQ(data.locations_of(0).size(), 2u);
  EXPECT_TRUE(data.locations_of(1).empty());
  EXPECT_EQ(data.locations_of(2).size(), 1u);
}

TEST(GeoDatasetMalformed, CountryLinesNeedExactlyTwoFields) {
  EXPECT_EQ(geo_error_of("DE EU\nUS NA extra\n", ""),
            "read_geo_dataset country line 2: unexpected trailing token "
            "'extra'");
  EXPECT_EQ(geo_error_of("DE\n", ""),
            "read_geo_dataset country line 1: expected 'code continent', got "
            "1 field(s)");
}

TEST(GeoDatasetMalformed, SignedLabelsAreRejectedNotWrapped) {
  EXPECT_EQ(geo_error_of("DE EU\n", "-5 DE\n"),
            "read_geo_dataset geo line 1: AS label '-5' is not a "
            "non-negative integer");
  EXPECT_EQ(geo_error_of("DE EU\n", "10 DE\n+20 DE\n"),
            "read_geo_dataset geo line 2: AS label '+20' is not a "
            "non-negative integer");
}

TEST(GeoDatasetMalformed, TrailingTokenIsRejectedNotIgnored) {
  EXPECT_EQ(geo_error_of("DE EU\n", "10 DE US\n"),
            "read_geo_dataset geo line 1: unexpected trailing token 'US'");
}

TEST(GeoDatasetMalformed, UnknownLabelAndCodeNameReaderLineAndToken) {
  EXPECT_EQ(geo_error_of("DE EU\n", "# c\n40 DE\n"),
            "read_geo_dataset geo line 2: AS label '40' is not a node of the "
            "graph");
  EXPECT_EQ(geo_error_of("DE EU\n", "10 DE,FR\n"),
            "read_geo_dataset geo line 1: unknown country code 'FR'");
}

TEST(GeoDatasetMalformed, EmptyCodeItemsAreRejectedNotDropped) {
  EXPECT_EQ(geo_error_of("DE EU\nUS NA\n", "10 DE,,US\n"),
            "read_geo_dataset geo line 1: empty item in 'DE,,US'");
  EXPECT_EQ(geo_error_of("DE EU\n", "10 DE\n30 ,\n"),
            "read_geo_dataset geo line 2: empty item in ','");
  EXPECT_EQ(geo_error_of("DE EU\n", "10 DE,\n"),
            "read_geo_dataset geo line 1: empty item in 'DE,'");
}

// ------------------------------------------------------------------- csv

TEST(CsvMalformed, EmptyHeaderRejected) {
  EXPECT_THROW(CsvWriter{std::vector<std::string>{}}, Error);
}

TEST(CsvMalformed, ArityMismatchRejected) {
  CsvWriter csv({"k", "count"});
  csv.add_row({"3", "17"});
  EXPECT_THROW(csv.add_row({"4"}), Error);
  EXPECT_THROW(csv.add_row({"4", "9", "extra"}), Error);
}

TEST(CsvMalformed, UnwritablePathRejected) {
  CsvWriter csv({"k"});
  csv.add_row({"2"});
  EXPECT_THROW(csv.save("/nonexistent/dir/out.csv"), Error);
}

TEST(CsvMalformed, QuotingSurvivesHostileCells) {
  CsvWriter csv({"name", "note"});
  csv.add_row({"a,b", "say \"hi\"\nbye"});
  EXPECT_EQ(csv.to_string(),
            "name,note\n\"a,b\",\"say \"\"hi\"\"\nbye\"\n");
}

}  // namespace
}  // namespace kcc
