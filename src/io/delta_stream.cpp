#include "io/delta_stream.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace kcc {
namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

template <typename Fn>
void for_each_token(std::string_view text, Fn&& fn) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (is_space(text[i])) continue;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    fn(text.substr(start, i - start));
  }
}

// A plain decimal integer in [0, max]; signs, letters and overflow throw.
std::uint64_t parse_number(std::string_view token, std::uint64_t max,
                           const char* what, const std::string& where) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  require(ec != std::errc::invalid_argument &&
              ptr == token.data() + token.size(),
          where, ": ", what, " '", token, "' is not a non-negative integer");
  require(ec == std::errc() && value <= max, where, ": ", what, " '", token,
          "' is larger than ", max);
  return value;
}

}  // namespace

Graph DeltaStream::base_graph() const {
  std::size_t n = num_nodes;
  std::vector<std::pair<NodeId, NodeId>> clean;
  clean.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    if (u == v) continue;  // loader semantics: drop self-loops
    n = std::max<std::size_t>(n, std::size_t{std::max(u, v)} + 1);
    clean.emplace_back(u, v);
  }
  return Graph::from_edges(n, clean);
}

std::string write_delta_stream(const DeltaStream& stream) {
  std::ostringstream out;
  out << "# " << stream.name << '\n';
  out << "nodes " << stream.num_nodes << '\n';
  for (const auto& [u, v] : stream.edges) {
    out << "edge " << u << ' ' << v << '\n';
  }
  for (const cpm::EdgeBatch& batch : stream.batches) {
    for (const auto& [u, v] : batch.remove) {
      out << "remove " << u << ' ' << v << '\n';
    }
    for (const auto& [u, v] : batch.add) {
      out << "add " << u << ' ' << v << '\n';
    }
    out << "commit\n";
  }
  return out.str();
}

DeltaStream parse_delta_stream(std::string_view text) {
  constexpr std::uint64_t kMaxNodeId = std::numeric_limits<NodeId>::max();
  DeltaStream stream;
  cpm::EdgeBatch batch;
  bool batch_open = false;
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t eol = std::min(text.find('\n'), text.size());
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(std::min(eol + 1, text.size()));
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      if (stream.name.empty()) {
        // The first comment doubles as the provenance label.
        for_each_token(line.substr(hash + 1), [&](std::string_view word) {
          if (!stream.name.empty()) stream.name += ' ';
          stream.name += word;
        });
      }
      line = line.substr(0, hash);
    }
    // The first four tokens are kept; `count` is the full number, so a
    // trailing token is still caught.
    std::string_view tokens[4];
    std::size_t count = 0;
    for_each_token(line, [&](std::string_view token) {
      if (count < 4) tokens[count] = token;
      ++count;
    });
    if (count == 0) continue;
    const std::string_view op = tokens[0];
    const std::string where = "delta stream line " + std::to_string(line_no);
    // Every op takes a fixed number of arguments; more is an error, not
    // silently ignored.
    auto expect_args = [&](std::size_t args, const char* needs) {
      require(count > args, where, ": '", op, "' needs ", needs);
      require(count == args + 1, where, ": unexpected trailing token '",
              tokens[args + 1], "' after '", op, "'");
    };
    auto parse_pair = [&]() {
      expect_args(2, "two node ids");
      return std::pair<NodeId, NodeId>{
          static_cast<NodeId>(
              parse_number(tokens[1], kMaxNodeId, "node id", where)),
          static_cast<NodeId>(
              parse_number(tokens[2], kMaxNodeId, "node id", where))};
    };
    if (op == "nodes") {
      expect_args(1, "a count");
      stream.num_nodes = static_cast<std::size_t>(
          parse_number(tokens[1], kMaxNodeId + 1, "node count", where));
    } else if (op == "edge") {
      require(!batch_open && stream.batches.empty(),
              where, ": 'edge' must precede the first batch op");
      stream.edges.push_back(parse_pair());
    } else if (op == "add") {
      batch.add.push_back(parse_pair());
      batch_open = true;
    } else if (op == "remove") {
      batch.remove.push_back(parse_pair());
      batch_open = true;
    } else if (op == "commit") {
      expect_args(0, "nothing");
      stream.batches.push_back(std::move(batch));
      batch = {};
      batch_open = false;
    } else {
      throw Error(where + ": unknown op '" + std::string(op) +
                  "' (nodes|edge|add|remove|commit)");
    }
  }
  if (batch_open) stream.batches.push_back(std::move(batch));
  if (stream.name.empty()) stream.name = "delta";
  return stream;
}

}  // namespace kcc
