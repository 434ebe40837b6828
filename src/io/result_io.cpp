#include "io/result_io.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "common/error.h"

namespace kcc {
namespace {

constexpr const char* kMagic = "kcc-cpm-result";
constexpr int kVersion = 1;

}  // namespace

void write_cpm_result(std::ostream& out, const CpmResult& result) {
  require(result.max_k >= result.min_k,
          "write_cpm_result: result covers no k");
  // num_nodes is not stored in CpmResult; the header carries an upper
  // bound derived from the cliques.
  std::size_t num_nodes = 0;
  for (const auto& clique : result.cliques) {
    if (!clique.empty()) {
      num_nodes = std::max<std::size_t>(num_nodes, clique.back() + 1);
    }
  }
  out << kMagic << ' ' << kVersion << '\n';
  out << "meta " << result.min_k << ' ' << result.max_k << ' '
      << result.cliques.size() << ' ' << num_nodes << '\n';
  for (CliqueId c = 0; c < result.cliques.size(); ++c) {
    out << "clique " << c;
    for (NodeId v : result.cliques[c]) out << ' ' << v;
    out << '\n';
  }
  for (const CommunitySet& set : result.by_k) {
    out << "set " << set.k << ' ' << set.count() << '\n';
    for (const Community& community : set.communities) {
      out << "community " << set.k << ' ' << community.id << " nodes";
      for (NodeId v : community.nodes) out << ' ' << v;
      out << " cliques";
      for (CliqueId c : community.clique_ids) out << ' ' << c;
      out << '\n';
    }
  }
}

void write_cpm_result_file(const std::string& path, const CpmResult& result) {
  std::ofstream out(path);
  require(out.good(), "write_cpm_result_file: cannot open '", path, "'");
  write_cpm_result(out, result);
  require(out.good(), "write_cpm_result_file: write failed for '", path, "'");
}

}  // namespace kcc
