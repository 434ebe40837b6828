// The text CPM result written by `kcc cpm --out`.
//
// The paper's community extraction took 93 hours on 48 cores, so its
// results are worth keeping. The format is a line-oriented text file:
//
//   kcc-cpm-result 1          (magic + version)
//   meta <min_k> <max_k> <num_cliques> <num_nodes>
//   clique <id> <node> <node> ...
//   set <k> <num_communities>
//   community <k> <id> nodes <n...> cliques <c...>
//
// Node ids are dense graph ids; pair the file with the edge list it was
// computed from. The library only writes this format: nothing reads it
// back. The served, reloadable form of a result is the binary snapshot
// (io/snapshot.h).
#pragma once

#include <iosfwd>
#include <string>

#include "cpm/community.h"

namespace kcc {

/// Writes `result` (which must cover a valid k range) to a stream/file.
void write_cpm_result(std::ostream& out, const CpmResult& result);
void write_cpm_result_file(const std::string& path, const CpmResult& result);

}  // namespace kcc
