// Community-tree snapshot: the versioned binary serving index that
// `kcc serve` (src/serve/) mmaps read-only. Any engine writes one from a
// cpm::Result; it keeps exactly what the queries read — the per-k
// community node sets, the nesting tree's parent links and a
// node→(k, community) postings index — so the paper's all-k communities
// are served to many concurrent clients without recomputation. The
// maximal-clique table and each community's clique ids are not stored;
// the write-only io/result_io.h text file is the format that records
// those.
//
// All arrays are flat and little-endian, addressable straight from the
// mapping, so membership-at-k / community-by-id / ancestry / LCA /
// overlap-depth queries never deserialize anything.
//
// Layout (full byte-level spec in docs/FORMATS.md):
//
//   header   64 bytes: magic "KCCSNAP1", version, file size, FNV-1a-64
//            payload digest, section count
//   table    section_count x 24-byte entries {id, offset, bytes}, id-sorted
//   sections 8-byte aligned: META, ENGINE, MANIFEST (provenance JSON),
//            LEVELS, per-k community node lists, node→community postings,
//            tree parent links
//
// Readers are paranoid: magic/version/size/digest are checked on open, all
// offset arrays are validated monotone and in range, and every id is
// bounds-checked before use — a truncated or corrupted file throws
// kcc::Error naming what is wrong, never returns partial data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "cpm/engine.h"

namespace kcc::snapshot {

/// First 8 bytes of every snapshot file.
inline constexpr char kMagic[8] = {'K', 'C', 'C', 'S', 'N', 'A', 'P', '1'};

/// Format version this build writes and reads. Readers reject other
/// versions loudly (versioning policy in docs/FORMATS.md). Version 1 also
/// stored the clique table and per-community clique ids.
inline constexpr std::uint32_t kVersion = 2;

/// Fixed header size; the section table starts at this offset.
inline constexpr std::uint32_t kHeaderBytes = 64;

/// Section ids, in file order. All sections are present in every snapshot
/// except kTreeParents, which exists iff the result carries a tree. Ids 4,
/// 5, 9 and 10 (version 1's clique sections) are retired, never reused.
enum SectionId : std::uint32_t {
  kSectionMeta = 1,          // fixed-size counts + flags
  kSectionEngine = 2,        // engine name bytes (no terminator)
  kSectionManifest = 3,      // provenance JSON text (free-form)
  kSectionLevels = 6,        // num_levels x {u64 first_community, u64 count}
  kSectionCommNodeOffsets = 7,   // (num_communities+1) x u64 into 8
  kSectionCommNodes = 8,         // u32 node ids, each community sorted
  kSectionPostingOffsets = 11,   // (num_nodes+1) x u64 into 12
  kSectionPostings = 12,         // {u32 k, u32 community} per node, (k,id) asc
  kSectionTreeParents = 13,      // num_communities x u32 parent community id
};

/// One node→community posting: node belongs to community `community` at
/// order `k`. A node in several overlapping communities at the same k has
/// one posting per community.
struct Posting {
  std::uint32_t k = 0;
  std::uint32_t community = 0;
};
static_assert(sizeof(Posting) == 8);

/// Sentinel parent id for communities at the bottom level (mirrors
/// CommunitySet::kNoCommunity).
inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

/// Provenance JSON for the MANIFEST section: build/host facts from
/// obs::collect_manifest plus the producing engine and exactness.
std::string default_manifest_json(const std::string& tool,
                                  const cpm::Result& result);

/// Serializes `result` as a complete snapshot. `manifest_json` lands in the
/// MANIFEST section verbatim (empty = call default_manifest_json("kcc")).
/// The stream must be binary-clean; "-"-style stdout routing is the
/// caller's job (obs::write_artifact).
void write_snapshot(std::ostream& out, const cpm::Result& result,
                    const std::string& manifest_json = "");

/// write_snapshot to a file path. Throws kcc::Error on I/O failure.
void write_snapshot_file(const std::string& path, const cpm::Result& result,
                         const std::string& manifest_json = "");

/// Read-only mmap view of a snapshot file. Construction validates the
/// header, section table, digest and every offset/id array; queries after
/// that are pure pointer arithmetic into the mapping (zero-copy spans).
/// The view owns the mapping; spans it returns die with it.
class SnapshotView {
 public:
  /// Maps `path` and validates it. Throws kcc::Error on any structural
  /// problem: truncation, bad magic, unsupported version, digest mismatch,
  /// out-of-range offsets or ids.
  explicit SnapshotView(const std::string& path);
  ~SnapshotView();

  SnapshotView(SnapshotView&& other) noexcept;
  SnapshotView& operator=(SnapshotView&&) = delete;
  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;

  // -- meta ---------------------------------------------------------------
  std::size_t min_k() const { return min_k_; }
  std::size_t max_k() const { return max_k_; }  // max_k < min_k: no levels
  std::size_t num_levels() const { return num_levels_; }
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_cliques() const { return num_cliques_; }
  std::size_t num_communities() const { return num_communities_; }
  bool has_tree() const { return has_tree_; }
  cpm::Exactness exactness() const { return exactness_; }
  std::string_view engine_name() const { return engine_; }
  std::string_view manifest_json() const { return manifest_; }
  std::uint64_t digest() const { return digest_; }
  std::size_t file_bytes() const { return bytes_; }

  bool has_k(std::size_t k) const { return k >= min_k_ && k <= max_k_; }

  // -- queries (all bounds-checked, throwing kcc::Error on bad ids) -------
  /// Number of communities at order k (0 when k is outside the range).
  std::size_t community_count(std::size_t k) const;

  /// Sorted member nodes of community (k, id).
  std::span<const std::uint32_t> community_nodes(std::size_t k,
                                                 std::uint32_t id) const;

  /// All (k, community) memberships of `node`, ascending (k, id). Nodes
  /// >= num_nodes() have an empty posting list by definition.
  std::span<const Posting> postings(std::uint32_t node) const;

  /// Parent community id (at order k-1) of community (k, id); kNoParent at
  /// the bottom level. Only valid when has_tree().
  std::uint32_t parent_of(std::size_t k, std::uint32_t id) const;

  /// Materializes what the file holds as a cpm::Result: per-k communities
  /// (node sets only) and the tree rebuilt via CommunityTree::from_levels.
  /// The clique table, clique ids and clique→community maps stay empty —
  /// the shape of the reference engine's result. The writer's round-trip
  /// oracle.
  cpm::Result to_result() const;

 private:
  std::size_t level_index(std::size_t k) const;  // throws when !has_k
  std::size_t global_community(std::size_t k, std::uint32_t id) const;

  const std::uint8_t* data_ = nullptr;
  std::size_t bytes_ = 0;
  int fd_ = -1;

  std::size_t min_k_ = 0, max_k_ = 0, num_levels_ = 0;
  std::size_t num_nodes_ = 0, num_cliques_ = 0, num_communities_ = 0;
  bool has_tree_ = false;
  cpm::Exactness exactness_ = cpm::Exactness::kExact;
  std::string_view engine_;
  std::string_view manifest_;
  std::uint64_t digest_ = 0;

  // Typed pointers into the mapping, set up (and fully validated) once.
  const std::uint64_t* levels_ = nullptr;  // pairs {first, count}
  const std::uint64_t* comm_node_offsets_ = nullptr;
  const std::uint32_t* comm_nodes_ = nullptr;
  const std::uint64_t* posting_offsets_ = nullptr;
  const Posting* postings_ = nullptr;
  const std::uint32_t* tree_parents_ = nullptr;
};

}  // namespace kcc::snapshot
