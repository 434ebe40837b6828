// Persistence for CPM results.
//
// The paper's community extraction took 93 hours on 48 cores — results of
// that magnitude must be storable and reloadable without recomputation.
// The format is a line-oriented text file:
//
//   kcc-cpm-result 1          (magic + version)
//   meta <min_k> <max_k> <num_cliques> <num_nodes>
//   clique <id> <node> <node> ...
//   set <k> <num_communities>
//   community <k> <id> nodes <n...> cliques <c...>
//
// Node ids are dense graph ids; pair the file with the edge list it was
// computed from.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "cpm/community.h"

namespace kcc {

/// Writes `result` (which must cover a valid k range) to a stream/file.
void write_cpm_result(std::ostream& out, const CpmResult& result);
void write_cpm_result_file(const std::string& path, const CpmResult& result);

/// Reads a CpmResult back and validates its structure: at each k, every
/// clique of size >= k is listed in exactly one community and no smaller
/// clique in any. `num_nodes` from the file header is returned via the
/// out-parameter when non-null.
CpmResult read_cpm_result(std::istream& in, std::size_t* num_nodes = nullptr);
CpmResult read_cpm_result_file(const std::string& path,
                               std::size_t* num_nodes = nullptr);

}  // namespace kcc
