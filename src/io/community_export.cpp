#include "io/community_export.h"

#include <fstream>
#include <ostream>

#include "common/error.h"

namespace kcc {

void write_membership_csv(std::ostream& out, const CpmResult& result,
                          const LabeledGraph& g) {
  require(g.labels.size() == g.graph.num_nodes(),
          "write_membership_csv: label table mismatch");
  out << "as,k,community\n";
  for (const CommunitySet& set : result.by_k) {
    for (const Community& community : set.communities) {
      for (NodeId v : community.nodes) {
        require(v < g.labels.size(),
                "write_membership_csv: node outside the labelled graph");
        out << g.labels[v] << ',' << set.k << ',' << community.id << '\n';
      }
    }
  }
}

void write_membership_csv_file(const std::string& path,
                               const CpmResult& result,
                               const LabeledGraph& g) {
  std::ofstream out(path);
  require(out.good(), "write_membership_csv_file: cannot open '", path, "'");
  write_membership_csv(out, result, g);
  require(out.good(),
          "write_membership_csv_file: write failed for '", path, "'");
}

void write_community_listing(std::ostream& out, const CpmResult& result,
                             const LabeledGraph& g) {
  require(g.labels.size() == g.graph.num_nodes(),
          "write_community_listing: label table mismatch");
  for (const CommunitySet& set : result.by_k) {
    for (const Community& community : set.communities) {
      out << 'k' << set.k << " id" << community.id << ':';
      for (NodeId v : community.nodes) {
        out << ' ' << g.labels[v];
      }
      out << '\n';
    }
  }
}

}  // namespace kcc
