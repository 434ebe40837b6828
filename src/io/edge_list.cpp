#include "io/edge_list.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <numeric>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "obs/trace.h"

namespace kcc {

namespace {

/// The characters operator>> skips in the C locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Parses one whitespace token as a node label. Anything that is not a
/// plain decimal integer fitting in 64 bits — letters, signs, floats,
/// overflow — is a hard error carrying the line number.
std::uint64_t parse_label(std::string_view token, std::size_t line_no) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  require(ec != std::errc::result_out_of_range,
          "read_edge_list: node id out of range on line ", line_no, ": '",
          token, "'");
  require(ec == std::errc() && ptr == token.data() + token.size(),
          "read_edge_list: non-numeric node id on line ", line_no, ": '", token,
          "'");
  return value;
}

/// The endpoint indices of `labels` in ascending label order: a stable
/// LSD radix sort, 16 bits per pass, that skips the passes above the
/// largest label. AS numbers below 65,536 take one pass, and no pass
/// compares two labels.
std::vector<std::size_t> radix_order(const std::vector<std::uint64_t>& labels,
                                     std::uint64_t max_label) {
  constexpr unsigned kBits = 16;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  std::vector<std::size_t> order(labels.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (labels.size() < 2) return order;
  std::vector<std::size_t> scratch(labels.size());
  std::vector<std::size_t> start(std::size_t{1} << kBits);
  for (unsigned shift = 0; shift < 64 && (max_label >> shift) != 0;
       shift += kBits) {
    std::fill(start.begin(), start.end(), 0);
    for (const std::size_t i : order) ++start[(labels[i] >> shift) & kMask];
    std::size_t sum = 0;
    for (std::size_t& s : start) sum += std::exchange(s, sum);
    for (const std::size_t i : order) {
      scratch[start[(labels[i] >> shift) & kMask]++] = i;
    }
    order.swap(scratch);
  }
  return order;
}

}  // namespace

NodeId LabeledGraph::node_of(std::uint64_t label) const {
  const auto it = std::lower_bound(labels.begin(), labels.end(), label);
  require(it != labels.end() && *it == label,
          "LabeledGraph::node_of: unknown label");
  return static_cast<NodeId>(it - labels.begin());
}

LabeledGraph read_edge_list(std::istream& in) {
  KCC_SPAN("io/read_edge_list");
  // Endpoint 2e is edge e's first label, 2e + 1 its second.
  std::vector<std::uint64_t> endpoints;
  std::uint64_t max_label = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Tokenize in place, then parse: a line is either empty (after comment
    // stripping) or exactly "u v" with both tokens valid integers. Anything
    // else — one token, three tokens, letters, overflow — throws with the
    // line number instead of being silently skipped.
    const std::string_view text =
        std::string_view(line).substr(0, line.find('#'));
    std::string_view tokens[2];
    std::size_t num_tokens = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (is_space(text[i])) continue;
      const std::size_t start = i;
      while (i < text.size() && !is_space(text[i])) ++i;
      if (num_tokens < 2) tokens[num_tokens] = text.substr(start, i - start);
      ++num_tokens;
    }
    if (num_tokens == 0) continue;  // blank or comment-only line
    require(num_tokens == 2, "read_edge_list: expected 'u v' on line ",
            line_no, ", got ", num_tokens, " token(s)");
    const std::uint64_t u = parse_label(tokens[0], line_no);
    const std::uint64_t v = parse_label(tokens[1], line_no);
    if (u == v) continue;  // spurious self-loop: drop
    endpoints.push_back(u);
    endpoints.push_back(v);
    max_label = std::max({max_label, u, v});
  }

  // Dense relabelling, sorted by external label for determinism: one
  // radix sort, then each run of equal labels becomes the next dense id,
  // written over the endpoint's label.
  LabeledGraph out;
  for (const std::size_t i : radix_order(endpoints, max_label)) {
    if (out.labels.empty() || out.labels.back() != endpoints[i]) {
      out.labels.push_back(endpoints[i]);
    }
    endpoints[i] = out.labels.size() - 1;
  }

  GraphBuilder builder(out.labels.size());
  for (std::size_t i = 0; i < endpoints.size(); i += 2) {
    builder.add_edge(static_cast<NodeId>(endpoints[i]),
                     static_cast<NodeId>(endpoints[i + 1]));
  }
  std::vector<std::uint64_t>().swap(endpoints);
  out.graph = builder.build();
  return out;
}

LabeledGraph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "read_edge_list_file: cannot open '", path, "'");
  return read_edge_list(in);
}

void write_edge_list(std::ostream& out, const LabeledGraph& g) {
  require(g.labels.size() == g.graph.num_nodes(),
          "write_edge_list: label count does not match node count");
  for (const auto& [u, v] : g.graph.edges()) {
    out << g.labels[u] << ' ' << g.labels[v] << '\n';
  }
}

void write_edge_list_file(const std::string& path, const LabeledGraph& g) {
  std::ofstream out(path);
  require(out.good(), "write_edge_list_file: cannot open '", path, "'");
  write_edge_list(out, g);
  require(out.good(), "write_edge_list_file: write failed for '", path, "'");
}

LabeledGraph with_identity_labels(Graph g) {
  LabeledGraph out;
  out.labels.resize(g.num_nodes());
  for (std::size_t i = 0; i < out.labels.size(); ++i) out.labels[i] = i;
  out.graph = std::move(g);
  return out;
}

}  // namespace kcc
