#include "io/result_io.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "common/set_ops.h"

namespace kcc {
namespace {

constexpr const char* kMagic = "kcc-cpm-result";
constexpr int kVersion = 1;

}  // namespace

void write_cpm_result(std::ostream& out, const CpmResult& result) {
  require(result.max_k >= result.min_k,
          "write_cpm_result: result covers no k");
  // num_nodes is not stored in CpmResult; derive an upper bound from the
  // cliques (sufficient for validation on reload).
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

CpmResult read_cpm_result(std::istream& in, std::size_t* num_nodes_out) {
  std::string magic;
  int version = 0;
  require(static_cast<bool>(in >> magic >> version),
          "read_cpm_result: missing header");
  require(magic == kMagic, "read_cpm_result: bad magic '", magic, "'");
  require(version == kVersion,
          "read_cpm_result: unsupported version ", version);

  std::string keyword;
  require(static_cast<bool>(in >> keyword) && keyword == "meta",
          "read_cpm_result: missing meta line");
  CpmResult result;
  std::size_t num_cliques = 0, num_nodes = 0;
  require(static_cast<bool>(in >> result.min_k >> result.max_k >>
                            num_cliques >> num_nodes),
          "read_cpm_result: malformed meta line");
  require(result.min_k >= 2 && result.max_k >= result.min_k,
          "read_cpm_result: invalid k range");

  result.cliques.resize(num_cliques);
  std::string line;
  std::getline(in, line);  // finish the meta line
  for (std::size_t i = 0; i < num_cliques; ++i) {
    require(static_cast<bool>(std::getline(in, line)),
            "read_cpm_result: truncated clique section");
    std::istringstream ls(line);
    CliqueId id = 0;
    require(static_cast<bool>(ls >> keyword >> id) && keyword == "clique" &&
                id == i,
            "read_cpm_result: malformed clique line ", i);
    NodeSet nodes;
    NodeId v = 0;
    while (ls >> v) {
      require(v < num_nodes, "read_cpm_result: clique node out of range");
      nodes.push_back(v);
    }
    require(nodes.size() >= 2 && is_sorted_unique(nodes),
            "read_cpm_result: clique must be a sorted set of >= 2 nodes");
    result.cliques[i] = std::move(nodes);
  }

  result.by_k.resize(result.max_k - result.min_k + 1);
  // The level that last listed each clique: one stamp per clique, reused
  // across levels, finds a clique listed twice in one level.
  std::vector<std::size_t> listed_at(result.cliques.size(), 0);
  for (std::size_t k = result.min_k; k <= result.max_k; ++k) {
    require(static_cast<bool>(std::getline(in, line)),
            "read_cpm_result: truncated set section");
    std::istringstream ls(line);
    std::size_t file_k = 0, count = 0;
    require(static_cast<bool>(ls >> keyword >> file_k >> count) &&
                keyword == "set" && file_k == k,
            "read_cpm_result: malformed set line for k ", k);
    CommunitySet& set = result.at(k);
    set.k = k;
    for (CommunityId id = 0; id < count; ++id) {
      require(static_cast<bool>(std::getline(in, line)),
              "read_cpm_result: truncated community section");
      std::istringstream cs(line);
      std::size_t ck = 0;
      CommunityId cid = 0;
      require(static_cast<bool>(cs >> keyword >> ck >> cid) &&
                  keyword == "community" && ck == k && cid == id,
              "read_cpm_result: malformed community line");
      Community community;
      community.k = k;
      community.id = id;
      require(static_cast<bool>(cs >> keyword) && keyword == "nodes",
              "read_cpm_result: missing nodes section");
      std::string token;
      while (cs >> token && token != "cliques") {
        community.nodes.push_back(
            static_cast<NodeId>(std::stoul(token)));
      }
      require(token == "cliques", "read_cpm_result: missing cliques section");
      CliqueId c = 0;
      while (cs >> c) {
        require(c < result.cliques.size(),
                "read_cpm_result: community clique id out of range");
        require(listed_at[c] != k, "read_cpm_result: k=", k, " lists clique ",
                c, " in two communities");
        require(result.cliques[c].size() >= k, "read_cpm_result: k=", k,
                " lists clique ", c, " of size ", result.cliques[c].size(),
                " < k");
        listed_at[c] = k;
        community.clique_ids.push_back(c);
      }
      require(is_sorted_unique(community.nodes) &&
                  is_sorted_unique(community.clique_ids) &&
                  !community.clique_ids.empty(),
              "read_cpm_result: community sections must be sorted sets");
      set.communities.push_back(std::move(community));
    }
    // Level k partitions the cliques of size >= k: each one it omits would
    // leave the community tree without its parent.
    for (CliqueId c = 0; c < result.cliques.size(); ++c) {
      require(result.cliques[c].size() < k || listed_at[c] == k,
              "read_cpm_result: k=", k, " lists clique ", c,
              " in no community");
    }
  }
  if (num_nodes_out != nullptr) *num_nodes_out = num_nodes;
  return result;
}

CpmResult read_cpm_result_file(const std::string& path,
                               std::size_t* num_nodes) {
  std::ifstream in(path);
  require(in.good(), "read_cpm_result_file: cannot open '", path, "'");
  return read_cpm_result(in, num_nodes);
}

}  // namespace kcc
