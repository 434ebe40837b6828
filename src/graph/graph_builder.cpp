#include <algorithm>

#include "common/error.h"
#include "graph/graph.h"

namespace kcc {

GraphBuilder::GraphBuilder(std::size_t num_nodes) : num_nodes_(num_nodes) {}

void GraphBuilder::ensure_nodes(std::size_t num_nodes) {
  num_nodes_ = std::max(num_nodes_, num_nodes);
}

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  require(u != v, "GraphBuilder::add_edge: self-loops are not allowed");
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
  ensure_nodes(static_cast<std::size_t>(v) + 1);
}

// Two counting passes, no comparison sort: O(n + m).
Graph GraphBuilder::build() {
  const std::size_t n = num_nodes_;
  Graph g;
  auto& offsets = g.offsets_;
  auto& adjacency = g.adjacency_;
  offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];

  // Pass 1: bucket the source of every arc by its destination.
  std::vector<NodeId> sources(edges_.size() * 2);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges_) {
    sources[cursor[v]++] = u;
    sources[cursor[u]++] = v;
  }
  std::vector<std::pair<NodeId, NodeId>>().swap(edges_);
  num_nodes_ = 0;

  // Pass 2: walk the destinations in ascending order, appending each to its
  // source's list, so every list comes out sorted and a duplicate edge
  // lands next to its twin, where it is skipped.
  adjacency.resize(sources.size());
  std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
  for (std::size_t d = 0; d < n; ++d) {
    const auto dest = static_cast<NodeId>(d);
    for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
      const NodeId s = sources[i];
      if (cursor[s] == offsets[s] || adjacency[cursor[s] - 1] != dest) {
        adjacency[cursor[s]++] = dest;
      }
    }
  }

  // Compaction: close the gaps the skipped duplicates left.
  std::size_t out = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t begin = offsets[v];
    const std::size_t end = cursor[v];
    offsets[v] = out;
    if (out != begin) {
      std::copy(adjacency.begin() + static_cast<std::ptrdiff_t>(begin),
                adjacency.begin() + static_cast<std::ptrdiff_t>(end),
                adjacency.begin() + static_cast<std::ptrdiff_t>(out));
    }
    out += end - begin;
  }
  offsets[n] = out;
  if (out != adjacency.size()) {
    adjacency.resize(out);
    adjacency.shrink_to_fit();
  }
  return g;
}

}  // namespace kcc
