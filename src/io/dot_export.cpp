#include "io/dot_export.h"

#include <fstream>
#include <ostream>

#include "common/error.h"

namespace kcc {

void write_tree_dot(std::ostream& out, const CommunityTree& tree,
                    std::size_t min_k_shown) {
  out << "graph community_tree {\n";
  out << "  node [shape=circle, fontsize=8];\n";
  const auto& nodes = tree.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& node = nodes[i];
    if (node.k < min_k_shown) continue;
    out << "  n" << i << " [label=\"k" << node.k << "id" << node.community_id
        << "\"";
    if (node.is_main) out << ", style=filled, fillcolor=black, fontcolor=white";
    out << "];\n";
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& node = nodes[i];
    if (node.parent < 0) continue;
    if (node.k < min_k_shown || nodes[node.parent].k < min_k_shown) continue;
    out << "  n" << node.parent << " -- n" << i << ";\n";
  }
  // Rank communities of equal k on one row, as in Fig. 4.2.
  for (std::size_t k = std::max(min_k_shown, tree.min_k()); k <= tree.max_k();
       ++k) {
    out << "  { rank=same;";
    for (int idx : tree.level(k)) out << " n" << idx << ";";
    out << " }\n";
  }
  out << "}\n";
}

void write_tree_dot_file(const std::string& path, const CommunityTree& tree,
                         std::size_t min_k_shown) {
  std::ofstream out(path);
  require(out.good(), "write_tree_dot_file: cannot open '", path, "'");
  write_tree_dot(out, tree, min_k_shown);
  require(out.good(), "write_tree_dot_file: write failed for '", path, "'");
}

void write_graph_dot(std::ostream& out, const Graph& g) {
  out << "graph g {\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "  n" << v << ";\n";
  }
  for (const auto& [u, v] : g.edges()) {
    out << "  n" << u << " -- n" << v << ";\n";
  }
  out << "}\n";
}

}  // namespace kcc
