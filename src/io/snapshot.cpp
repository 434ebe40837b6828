#include "io/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "obs/report.h"

namespace kcc::snapshot {

// The format is defined as little-endian and the reader casts straight into
// the mapping, so a big-endian host would need byte-swapping shims nobody
// has written. Refuse to compile there rather than corrupt silently.
static_assert(std::endian::native == std::endian::little,
              "snapshot format requires a little-endian host");

namespace {

constexpr std::size_t kSectionEntryBytes = 24;
constexpr std::size_t kMetaBytes = 56;

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Appends `count` values as their raw (little-endian) bytes with one
// resize and one copy.
template <typename T>
void append(std::vector<std::uint8_t>& out, const T* values,
            std::size_t count) {
  const std::size_t at = out.size();
  out.resize(at + count * sizeof(T));
  if (count > 0) std::memcpy(out.data() + at, values, count * sizeof(T));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  append(out, &v, 1);
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  append(out, &v, 1);
}

std::size_t align8(std::size_t offset) { return (offset + 7) & ~std::size_t{7}; }

struct SectionBuf {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> bytes;
};

/// Highest node id + 1 across cliques and community node sets (reference
/// results carry no clique table, so cliques alone are not enough).
std::size_t derive_num_nodes(const CpmResult& data) {
  std::size_t num_nodes = 0;
  for (const NodeSet& clique : data.cliques) {
    if (!clique.empty()) {
      num_nodes = std::max<std::size_t>(num_nodes, clique.back() + 1);
    }
  }
  for (const CommunitySet& set : data.by_k) {
    for (const Community& community : set.communities) {
      if (!community.nodes.empty()) {
        num_nodes =
            std::max<std::size_t>(num_nodes, community.nodes.back() + 1);
      }
    }
  }
  return num_nodes;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

std::string default_manifest_json(const std::string& tool,
                                  const cpm::Result& result) {
  const obs::RunManifest m = obs::collect_manifest(tool);
  std::ostringstream out;
  out << "{\"kcc_snapshot_manifest_version\":1"
      << ",\"tool\":\"" << json_escape(m.tool) << '"'
      << ",\"engine\":\"" << json_escape(result.engine_name) << '"'
      << ",\"exactness\":\"" << cpm::exactness_name(result.exactness) << '"'
      << ",\"git_sha\":\"" << json_escape(m.git_sha) << '"'
      << ",\"git_dirty\":" << (m.git_dirty ? "true" : "false")
      << ",\"build_type\":\"" << json_escape(m.build_type) << '"'
      << ",\"compiler\":\"" << json_escape(m.compiler) << '"'
      << ",\"sanitize\":\"" << json_escape(m.sanitize) << '"'
      << ",\"hostname\":\"" << json_escape(m.hostname) << '"'
      << ",\"cpu_model\":\"" << json_escape(m.cpu_model) << '"'
      << ",\"cpu_logical_cores\":" << m.cpu_logical_cores << '}';
  return out.str();
}

void write_snapshot(std::ostream& out, const cpm::Result& result,
                    const std::string& manifest_json) {
  const CpmResult& data = result.cpm;
  const std::size_t num_levels =
      data.max_k >= data.min_k ? data.max_k - data.min_k + 1 : 0;
  require(data.by_k.size() == num_levels,
          "write_snapshot: by_k does not match the declared k range");
  const std::size_t num_nodes = derive_num_nodes(data);

  std::size_t num_communities = 0;
  for (const CommunitySet& set : data.by_k) num_communities += set.count();

  std::vector<SectionBuf> sections;
  auto section = [&sections](std::uint32_t id) -> std::vector<std::uint8_t>& {
    sections.push_back({id, {}});
    return sections.back().bytes;
  };

  {
    auto& meta = section(kSectionMeta);
    append_u64(meta, data.min_k);
    append_u64(meta, data.max_k);
    append_u64(meta, num_levels);
    append_u64(meta, num_nodes);
    append_u64(meta, data.cliques.size());
    append_u64(meta, num_communities);
    append_u32(meta, static_cast<std::uint32_t>(result.exactness));
    append_u32(meta, result.has_tree ? 1 : 0);
  }
  {
    auto& engine = section(kSectionEngine);
    engine.assign(result.engine_name.begin(), result.engine_name.end());
  }
  {
    const std::string& manifest = manifest_json.empty()
        ? default_manifest_json("kcc", result) : manifest_json;
    auto& buf = section(kSectionManifest);
    buf.assign(manifest.begin(), manifest.end());
  }
  {
    std::vector<std::uint64_t> levels;
    levels.reserve(2 * data.by_k.size());
    std::uint64_t first = 0;
    for (const CommunitySet& set : data.by_k) {
      levels.push_back(first);
      levels.push_back(set.count());
      first += set.count();
    }
    append(section(kSectionLevels), levels.data(), levels.size());
  }
  {
    std::vector<std::uint64_t> offsets;
    offsets.reserve(num_communities + 1);
    std::uint64_t total = 0;
    offsets.push_back(0);
    for (const CommunitySet& set : data.by_k) {
      for (const Community& community : set.communities) {
        total += community.nodes.size();
        offsets.push_back(total);
      }
    }
    append(section(kSectionCommNodeOffsets), offsets.data(), offsets.size());
    auto& nodes = section(kSectionCommNodes);
    nodes.reserve(total * sizeof(NodeId));
    for (const CommunitySet& set : data.by_k) {
      for (const Community& community : set.communities) {
        append(nodes, community.nodes.data(), community.nodes.size());
      }
    }
  }
  {
    // Per-node postings as one CSR: count each node's postings, prefix-sum
    // the counts into the offsets, then fill by walking levels in (k asc,
    // id asc) order so each node's list is already sorted the way queries
    // want it.
    std::vector<std::uint64_t> offsets(num_nodes + 1, 0);
    for (const CommunitySet& set : data.by_k) {
      for (const Community& community : set.communities) {
        for (NodeId v : community.nodes) ++offsets[v + 1];
      }
    }
    for (std::size_t v = 0; v < num_nodes; ++v) offsets[v + 1] += offsets[v];
    std::vector<Posting> postings(offsets[num_nodes]);
    std::vector<std::uint64_t> next(offsets.begin(), offsets.end() - 1);
    for (const CommunitySet& set : data.by_k) {
      for (const Community& community : set.communities) {
        for (NodeId v : community.nodes) {
          postings[next[v]++] = {static_cast<std::uint32_t>(set.k),
                                 static_cast<std::uint32_t>(community.id)};
        }
      }
    }
    append(section(kSectionPostingOffsets), offsets.data(), offsets.size());
    append(section(kSectionPostings), postings.data(), postings.size());
  }
  if (result.has_tree) {
    std::vector<std::uint32_t> parents;
    parents.reserve(num_communities);
    for (const CommunitySet& set : data.by_k) {
      for (const Community& community : set.communities) {
        std::uint32_t parent = kNoParent;
        if (set.k > data.min_k) {
          const int index = result.tree.index_of(set.k, community.id);
          require(index >= 0,
                  "write_snapshot: community missing from the tree");
          const int parent_index = result.tree.nodes()[index].parent;
          require(parent_index >= 0,
                  "write_snapshot: tree parent missing above min_k");
          parent = result.tree.nodes()[parent_index].community_id;
        }
        parents.push_back(parent);
      }
    }
    append(section(kSectionTreeParents), parents.data(), parents.size());
  }

  // Lay the sections out after the table, 8-byte aligned, and assemble the
  // payload (table + sections) so the digest can cover it in one pass.
  const std::size_t table_bytes = sections.size() * kSectionEntryBytes;
  std::size_t end = kHeaderBytes + table_bytes;
  for (const SectionBuf& s : sections) end = align8(end) + s.bytes.size();
  std::vector<std::uint8_t> payload(table_bytes);
  payload.reserve(end - kHeaderBytes);
  std::size_t offset = kHeaderBytes + table_bytes;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    offset = align8(offset);
    std::uint8_t* entry = payload.data() + i * kSectionEntryBytes;
    std::uint32_t id = sections[i].id;
    std::uint64_t off64 = offset, len64 = sections[i].bytes.size();
    std::memcpy(entry, &id, 4);
    std::memset(entry + 4, 0, 4);  // reserved
    std::memcpy(entry + 8, &off64, 8);
    std::memcpy(entry + 16, &len64, 8);
    // Pad up to this section's aligned start, then append its bytes.
    payload.resize(offset - kHeaderBytes, 0);
    payload.insert(payload.end(), sections[i].bytes.begin(),
                   sections[i].bytes.end());
    offset += sections[i].bytes.size();
  }
  const std::uint64_t file_bytes = kHeaderBytes + payload.size();
  const std::uint64_t digest = fnv1a64(payload.data(), payload.size());

  std::vector<std::uint8_t> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(), kMagic, kMagic + 8);
  append_u32(header, kVersion);
  append_u32(header, kHeaderBytes);
  append_u64(header, file_bytes);
  append_u64(header, digest);
  append_u32(header, static_cast<std::uint32_t>(sections.size()));
  header.resize(kHeaderBytes, 0);  // reserved tail

  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  require(out.good(), "write_snapshot: stream write failed");
}

void write_snapshot_file(const std::string& path, const cpm::Result& result,
                         const std::string& manifest_json) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  require(out.good(), "write_snapshot_file: cannot open '", path, "'");
  write_snapshot(out, result, manifest_json);
  out.close();
  require(out.good(), "write_snapshot_file: write failed for '", path, "'");
}

namespace {

/// Bounds-checked little-endian reads out of the raw header/table bytes.
std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

struct Section {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  bool present = false;
};

}  // namespace

SnapshotView::SnapshotView(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  require(fd_ >= 0, "snapshot: cannot open '", path, "': ",
          std::strerror(errno));
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw Error("snapshot: fstat failed for '" + path + "'");
  }
  bytes_ = static_cast<std::size_t>(st.st_size);
  if (bytes_ < kHeaderBytes) {
    ::close(fd_);
    fd_ = -1;
    throw Error("snapshot: '" + path + "' is truncated (" +
                std::to_string(bytes_) + " bytes, header needs " +
                std::to_string(kHeaderBytes) + ")");
  }
  void* mapping = ::mmap(nullptr, bytes_, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (mapping == MAP_FAILED) {
    ::close(fd_);
    fd_ = -1;
    throw Error("snapshot: mmap failed for '" + path + "'");
  }
  data_ = static_cast<const std::uint8_t*>(mapping);

  // From here on, failures must unmap; funnel them through one thrower.
  auto fail = [this, &path](const std::string& what) {
    ::munmap(const_cast<std::uint8_t*>(data_), bytes_);
    ::close(fd_);
    data_ = nullptr;
    fd_ = -1;
    throw Error("snapshot: '" + path + "': " + what);
  };
  auto check = [&fail](bool ok, const std::string& what) {
    if (!ok) fail(what);
  };

  check(std::memcmp(data_, kMagic, 8) == 0,
        "bad magic (not a kcc snapshot file)");
  const std::uint32_t version = load_u32(data_ + 8);
  check(version == kVersion, "unsupported version " + std::to_string(version) +
                                 " (this build reads version " +
                                 std::to_string(kVersion) + ")");
  check(load_u32(data_ + 12) == kHeaderBytes, "unexpected header size");
  const std::uint64_t file_bytes = load_u64(data_ + 16);
  check(file_bytes == bytes_,
        "file size mismatch: header says " + std::to_string(file_bytes) +
            " bytes, file has " + std::to_string(bytes_) +
            " (truncated or padded)");
  digest_ = load_u64(data_ + 24);
  const std::uint32_t section_count = load_u32(data_ + 32);
  check(section_count >= 8 && section_count <= 64,
        "implausible section count " + std::to_string(section_count));
  const std::uint64_t table_end =
      kHeaderBytes + std::uint64_t{section_count} * kSectionEntryBytes;
  check(table_end <= bytes_, "section table extends past end of file");
  check(fnv1a64(data_ + kHeaderBytes, bytes_ - kHeaderBytes) == digest_,
        "payload digest mismatch (file corrupted)");

  // Section table: ids strictly increasing, every extent inside the file
  // and 8-byte aligned so the typed casts below are in-bounds and aligned.
  Section table[kSectionTreeParents + 1] = {};
  std::uint32_t prev_id = 0;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint8_t* entry =
        data_ + kHeaderBytes + std::size_t{i} * kSectionEntryBytes;
    const std::uint32_t id = load_u32(entry);
    const std::uint64_t offset = load_u64(entry + 8);
    const std::uint64_t length = load_u64(entry + 16);
    check(id > prev_id, "section ids not strictly increasing");
    prev_id = id;
    check(offset % 8 == 0, "section offset not 8-byte aligned");
    check(offset >= table_end && offset <= bytes_ &&
              length <= bytes_ - offset,
          "section extent outside the file");
    if (id <= kSectionTreeParents) {
      table[id] = {offset, length, true};
    }
    // Unknown higher ids are tolerated for forward-compat within a version.
  }
  for (const SectionId id :
       {kSectionMeta, kSectionEngine, kSectionManifest, kSectionLevels,
        kSectionCommNodeOffsets, kSectionCommNodes, kSectionPostingOffsets,
        kSectionPostings}) {
    check(table[id].present,
          "missing required section " + std::to_string(id));
  }

  const Section& meta = table[kSectionMeta];
  check(meta.bytes == kMetaBytes, "META section has wrong size");
  const std::uint8_t* m = data_ + meta.offset;
  min_k_ = load_u64(m);
  max_k_ = load_u64(m + 8);
  num_levels_ = load_u64(m + 16);
  num_nodes_ = load_u64(m + 24);
  num_cliques_ = load_u64(m + 32);
  num_communities_ = load_u64(m + 40);
  const std::uint32_t exactness = load_u32(m + 48);
  has_tree_ = load_u32(m + 52) != 0;
  check(exactness <= 1, "unknown exactness value");
  exactness_ = static_cast<cpm::Exactness>(exactness);
  check(min_k_ >= 2, "min_k below 2");
  const std::size_t expect_levels =
      max_k_ >= min_k_ ? max_k_ - min_k_ + 1 : 0;
  check(num_levels_ == expect_levels, "level count contradicts the k range");
  // Every level and community owns at least one array entry in the file;
  // num_cliques indexes nothing here, so it is reported, not bounded.
  check(num_levels_ <= bytes_ / 16 && num_communities_ <= bytes_ / 4 &&
            num_nodes_ <= std::uint64_t{1} << 32,
        "implausible counts in META");

  engine_ = std::string_view(
      reinterpret_cast<const char*>(data_ + table[kSectionEngine].offset),
      table[kSectionEngine].bytes);
  manifest_ = std::string_view(
      reinterpret_cast<const char*>(data_ + table[kSectionManifest].offset),
      table[kSectionManifest].bytes);

  // Offset arrays: exact byte size, monotone, final entry equal to the
  // element count of the section they index into.
  auto offsets_array = [&](SectionId id, std::size_t count,
                           const char* what) -> const std::uint64_t* {
    check(table[id].bytes == (count + 1) * 8,
          std::string(what) + " offsets section has wrong size");
    const auto* arr =
        reinterpret_cast<const std::uint64_t*>(data_ + table[id].offset);
    check(arr[0] == 0, std::string(what) + " offsets must start at 0");
    for (std::size_t i = 0; i < count; ++i) {
      check(arr[i] <= arr[i + 1], std::string(what) + " offsets not monotone");
    }
    return arr;
  };
  auto elems_u32 = [&](SectionId id, std::uint64_t count,
                       const char* what) -> const std::uint32_t* {
    check(table[id].bytes == count * 4,
          std::string(what) + " section size disagrees with its offsets");
    return reinterpret_cast<const std::uint32_t*>(data_ + table[id].offset);
  };

  check(table[kSectionLevels].bytes == num_levels_ * 16,
        "LEVELS section has wrong size");
  levels_ = reinterpret_cast<const std::uint64_t*>(
      data_ + table[kSectionLevels].offset);
  std::uint64_t expect_first = 0;
  for (std::size_t i = 0; i < num_levels_; ++i) {
    check(levels_[2 * i] == expect_first, "levels are not contiguous");
    expect_first += levels_[2 * i + 1];
  }
  check(expect_first == num_communities_,
        "level community counts disagree with META");

  comm_node_offsets_ =
      offsets_array(kSectionCommNodeOffsets, num_communities_, "community node");
  comm_nodes_ = elems_u32(kSectionCommNodes,
                          comm_node_offsets_[num_communities_], "community nodes");
  for (std::uint64_t i = 0; i < comm_node_offsets_[num_communities_]; ++i) {
    check(comm_nodes_[i] < num_nodes_, "community node id out of range");
  }

  posting_offsets_ =
      offsets_array(kSectionPostingOffsets, num_nodes_, "posting");
  check(table[kSectionPostings].bytes ==
            posting_offsets_[num_nodes_] * sizeof(Posting),
        "POSTINGS section size disagrees with its offsets");
  postings_ =
      reinterpret_cast<const Posting*>(data_ + table[kSectionPostings].offset);
  for (std::uint64_t i = 0; i < posting_offsets_[num_nodes_]; ++i) {
    const Posting& p = postings_[i];
    if (p.k < min_k_ || p.k > max_k_) fail("posting k out of range");
    if (p.community >= levels_[2 * (p.k - min_k_) + 1]) {
      fail("posting community id out of range");
    }
  }

  if (has_tree_) {
    check(table[kSectionTreeParents].present,
          "META says has_tree but TREE_PARENTS section is missing");
    check(table[kSectionTreeParents].bytes == num_communities_ * 4,
          "TREE_PARENTS section has wrong size");
    tree_parents_ = reinterpret_cast<const std::uint32_t*>(
        data_ + table[kSectionTreeParents].offset);
    for (std::size_t level = 0; level < num_levels_; ++level) {
      const std::uint64_t first = levels_[2 * level];
      const std::uint64_t count = levels_[2 * level + 1];
      for (std::uint64_t i = first; i < first + count; ++i) {
        if (level == 0) {
          check(tree_parents_[i] == kNoParent,
                "bottom-level community has a tree parent");
        } else {
          check(tree_parents_[i] < levels_[2 * (level - 1) + 1],
                "tree parent id out of range");
        }
      }
    }
  } else {
    check(!table[kSectionTreeParents].present,
          "TREE_PARENTS present but META says no tree");
  }
}

SnapshotView::~SnapshotView() {
  if (data_ != nullptr) ::munmap(const_cast<std::uint8_t*>(data_), bytes_);
  if (fd_ >= 0) ::close(fd_);
}

SnapshotView::SnapshotView(SnapshotView&& other) noexcept
    : data_(other.data_), bytes_(other.bytes_), fd_(other.fd_),
      min_k_(other.min_k_), max_k_(other.max_k_),
      num_levels_(other.num_levels_), num_nodes_(other.num_nodes_),
      num_cliques_(other.num_cliques_),
      num_communities_(other.num_communities_), has_tree_(other.has_tree_),
      exactness_(other.exactness_), engine_(other.engine_),
      manifest_(other.manifest_), digest_(other.digest_),
      levels_(other.levels_), comm_node_offsets_(other.comm_node_offsets_),
      comm_nodes_(other.comm_nodes_),
      posting_offsets_(other.posting_offsets_), postings_(other.postings_),
      tree_parents_(other.tree_parents_) {
  other.data_ = nullptr;
  other.fd_ = -1;
}

std::size_t SnapshotView::level_index(std::size_t k) const {
  require(has_k(k), "snapshot query: k=", k, " outside [", min_k_, ", ", max_k_,
          "]");
  return k - min_k_;
}

std::size_t SnapshotView::global_community(std::size_t k,
                                           std::uint32_t id) const {
  const std::size_t level = level_index(k);
  require(id < levels_[2 * level + 1],
          "snapshot query: community id ", id, " out of range at k=", k);
  return levels_[2 * level] + id;
}

std::size_t SnapshotView::community_count(std::size_t k) const {
  if (!has_k(k)) return 0;
  return levels_[2 * (k - min_k_) + 1];
}

std::span<const std::uint32_t> SnapshotView::community_nodes(
    std::size_t k, std::uint32_t id) const {
  const std::size_t g = global_community(k, id);
  return {comm_nodes_ + comm_node_offsets_[g],
          static_cast<std::size_t>(comm_node_offsets_[g + 1] -
                                   comm_node_offsets_[g])};
}

std::span<const Posting> SnapshotView::postings(std::uint32_t node) const {
  if (node >= num_nodes_) return {};
  return {postings_ + posting_offsets_[node],
          static_cast<std::size_t>(posting_offsets_[node + 1] -
                                   posting_offsets_[node])};
}

std::uint32_t SnapshotView::parent_of(std::size_t k, std::uint32_t id) const {
  require(has_tree_, "snapshot query: snapshot carries no tree");
  return tree_parents_[global_community(k, id)];
}

cpm::Result SnapshotView::to_result() const {
  cpm::Result result;
  result.engine_name = std::string(engine_);
  result.exactness = exactness_;

  CpmResult& data = result.cpm;
  data.min_k = min_k_;
  data.max_k = max_k_;

  data.by_k.resize(num_levels_);
  std::vector<std::vector<TreeParentLink>> levels(has_tree_ ? num_levels_ : 0);
  for (std::size_t i = 0; i < num_levels_; ++i) {
    const std::size_t k = min_k_ + i;
    CommunitySet& set = data.by_k[i];
    set.k = k;
    const std::size_t count = community_count(k);
    set.communities.resize(count);
    if (has_tree_) levels[i].resize(count);
    for (std::uint32_t id = 0; id < count; ++id) {
      Community& community = set.communities[id];
      community.k = k;
      community.id = id;
      const auto nodes = community_nodes(k, id);
      community.nodes.assign(nodes.begin(), nodes.end());
      if (has_tree_) {
        levels[i][id] = {community.nodes.size(), parent_of(k, id)};
      }
    }
  }

  if (has_tree_ && num_levels_ > 0) {
    result.tree = CommunityTree::from_levels(min_k_, levels);
    result.has_tree = true;
  } else {
    result.has_tree = has_tree_;
  }
  return result;
}

}  // namespace kcc::snapshot
