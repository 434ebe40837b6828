// Edge-delta streams (`.delta`, grammar in docs/FORMATS.md#delta-streams):
// an optional initial graph plus a schedule of edge batches. `kcc update`
// replays them through the incremental engine, and the churn-differential
// harness writes its reproducers in this format.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cpm/incr_cpm.h"
#include "graph/graph.h"

namespace kcc {

struct DeltaStream {
  /// The first comment line, whitespace-normalized ("delta" when absent).
  std::string name;
  /// The `nodes N` floor of the node universe (0 when absent).
  std::size_t num_nodes = 0;
  /// The initial graph's `edge` lines, as written.
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<cpm::EdgeBatch> batches;

  /// The initial graph: `num_nodes` grown to cover every edge endpoint,
  /// self-loops dropped.
  Graph base_graph() const;
};

/// Serializes a stream: "# name", "nodes N", "edge u v"..., then per batch
/// "remove u v" / "add u v" lines closed by "commit". parse_delta_stream
/// reads it back unchanged.
std::string write_delta_stream(const DeltaStream& stream);

/// Parses a delta stream. Throws kcc::Error naming the line on an unknown
/// op, a missing or trailing token, or a node id that is not a plain
/// decimal integer fitting NodeId. Trailing ops without a closing "commit"
/// form a final batch.
DeltaStream parse_delta_stream(std::string_view text);

}  // namespace kcc
