// Snapshot round-trip identity and corruption rejection (io/snapshot.h).
//
// The contract under test: for every registry engine and every seeded graph
// family, write -> mmap -> to_result() reproduces what a snapshot serves of
// the in-memory cpm::Result — per-k community node sets and the tree —
// byte-identically under cpm::canonical_text without the clique sections;
// and any structural damage to the file (truncation, bad magic, wrong
// version, flipped payload bytes) is rejected loudly at open, never served
// as partial data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "check/generators.h"
#include "common/error.h"
#include "cpm/engine.h"
#include "io/snapshot.h"
#include "test_helpers.h"

namespace kcc {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("kcc_snapshot_test_" + name)).string();
}

/// Removes the file on scope exit so failed tests don't litter /tmp.
struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

cpm::Result run_engine(const std::string& engine, const Graph& g,
                       std::size_t min_k = 2, std::size_t max_k = 0) {
  cpm::Options options;
  options.engine = engine;
  options.threads = 2;
  options.min_k = min_k;
  options.max_k = max_k;
  return cpm::Engine(options).run(g);
}

/// Highest node id + 1 over the clique table and every community.
std::size_t in_memory_num_nodes(const cpm::Result& result) {
  std::size_t num_nodes = 0;
  for (const NodeSet& clique : result.cpm.cliques) {
    if (!clique.empty()) {
      num_nodes = std::max<std::size_t>(num_nodes, clique.back() + 1);
    }
  }
  for (const CommunitySet& set : result.cpm.by_k) {
    for (const Community& community : set.communities) {
      if (!community.nodes.empty()) {
        num_nodes =
            std::max<std::size_t>(num_nodes, community.nodes.back() + 1);
      }
    }
  }
  return num_nodes;
}

/// What a snapshot serves: communities, levels and tree — no clique table,
/// no clique ids, no clique -> community maps.
const cpm::CanonicalOptions kServed{/*include_cliques=*/false,
                                    /*include_clique_ids=*/false,
                                    /*include_tree=*/true};

void expect_round_trip(const cpm::Result& original, const std::string& tag) {
  TempFile file(tag + ".snap");
  snapshot::write_snapshot_file(file.path, original);

  snapshot::SnapshotView view(file.path);
  EXPECT_EQ(view.engine_name(), original.engine_name) << tag;
  EXPECT_EQ(view.exactness(), original.exactness) << tag;
  EXPECT_EQ(view.has_tree(), original.has_tree) << tag;
  EXPECT_EQ(view.num_cliques(), original.cpm.cliques.size()) << tag;
  EXPECT_EQ(view.num_nodes(), in_memory_num_nodes(original)) << tag;

  const cpm::Result reread = view.to_result();
  EXPECT_TRUE(reread.cpm.cliques.empty()) << tag;
  // Without the clique sections canonical_text still covers the per-k
  // communities and the full tree, so equality here is the byte-identity
  // contract of everything the file serves.
  EXPECT_EQ(cpm::canonical_text(original, kServed),
            cpm::canonical_text(reread, kServed))
      << tag;
}

TEST(Snapshot, RoundTripAllEnginesOnSharedFamilies) {
  const Graph graphs[] = {
      testing::overlapping_cliques(6, 5, 3),
      testing::random_graph(40, 0.25, 7),
      testing::preferential_attachment_graph(60, 3, 11),
  };
  for (const cpm::EngineInfo& info : cpm::engine_registry()) {
    std::size_t gi = 0;
    for (const Graph& g : graphs) {
      // The reference oracle is exponential; keep it to the small fixture.
      if (info.caps.exponential && g.num_nodes() > 20) continue;
      const cpm::Result result = run_engine(info.name, g);
      expect_round_trip(result, info.name + "_g" + std::to_string(gi));
      ++gi;
    }
  }
}

TEST(Snapshot, RoundTripSeededCorpus) {
  // A slice of the fuzzer corpus: the degenerate shapes plus a few seeded
  // families, through the default engine.
  const std::size_t count = check::degenerate_graph_count() + 6;
  for (std::size_t index = 0; index < count; ++index) {
    const check::TestGraph tg = check::generate_graph(29, index);
    const Graph g = tg.build();
    const cpm::Result result = run_engine("sweep", g);
    if (result.cpm.max_k < result.cpm.min_k) continue;  // nothing to nest
    expect_round_trip(result, "corpus" + std::to_string(index));
  }
}

TEST(Snapshot, CountsCoverCliqueNodesOutsideEveryCommunity) {
  // A 5-clique plus a pendant path on the highest ids: at k in [3, 5] the
  // path's nodes are in no community, yet they are clique nodes, so META's
  // num_nodes still counts them.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  for (NodeId v = 4; v < 8; ++v) edges.emplace_back(v, v + 1);
  const Graph g = Graph::from_edges(9, edges);
  const cpm::Result result = run_engine("sweep", g, 3, 5);
  ASSERT_EQ(result.cpm.min_k, 3u);
  ASSERT_EQ(result.cpm.max_k, 5u);
  std::size_t community_nodes_end = 0;
  for (const CommunitySet& set : result.cpm.by_k) {
    for (const Community& community : set.communities) {
      community_nodes_end = std::max<std::size_t>(
          community_nodes_end, community.nodes.back() + 1);
    }
  }
  ASSERT_EQ(community_nodes_end, 5u);
  ASSERT_EQ(in_memory_num_nodes(result), 9u);
  expect_round_trip(result, "k3to5");
}

TEST(Snapshot, PostingsAndQueriesMatchResult) {
  const Graph g = testing::random_graph(50, 0.3, 3);
  const cpm::Result result = run_engine("sweep", g);
  TempFile file("queries.snap");
  snapshot::write_snapshot_file(file.path, result);
  snapshot::SnapshotView view(file.path);

  for (std::size_t k = result.cpm.min_k; k <= result.cpm.max_k; ++k) {
    const CommunitySet& set = result.cpm.at(k);
    ASSERT_EQ(view.community_count(k), set.count());
    for (const Community& community : set.communities) {
      const auto nodes = view.community_nodes(k, community.id);
      ASSERT_EQ(NodeSet(nodes.begin(), nodes.end()), community.nodes);
      for (NodeId v : community.nodes) {
        bool found = false;
        for (const snapshot::Posting& p : view.postings(v)) {
          if (p.k == k && p.community == community.id) found = true;
        }
        EXPECT_TRUE(found) << "posting missing for node " << v << " k=" << k;
      }
    }
  }
  // Nodes outside every community (or outside the graph) have no postings.
  EXPECT_TRUE(view.postings(1 << 20).empty());
}

TEST(Snapshot, OutOfRangeQueriesNameTheRange) {
  const Graph g = testing::random_graph(50, 0.3, 3);
  const cpm::Result result = run_engine("sweep", g);
  ASSERT_GE(result.cpm.max_k, result.cpm.min_k);
  TempFile file("ranges.snap");
  snapshot::write_snapshot_file(file.path, result);
  const snapshot::SnapshotView view(file.path);
  const std::size_t k = result.cpm.max_k + 1;
  try {
    static_cast<void>(view.community_nodes(k, 0));
    FAIL() << "k=" << k << " accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "snapshot query: k=" + std::to_string(k) + " outside [" +
                  std::to_string(result.cpm.min_k) + ", " +
                  std::to_string(result.cpm.max_k) + "]");
  }
}

TEST(Snapshot, ManifestAndDigestExposed) {
  const Graph g = testing::overlapping_cliques(5, 4, 2);
  const cpm::Result result = run_engine("sweep", g);
  TempFile file("manifest.snap");
  snapshot::write_snapshot_file(file.path, result, "{\"custom\":true}");
  snapshot::SnapshotView view(file.path);
  EXPECT_EQ(view.manifest_json(), "{\"custom\":true}");
  EXPECT_NE(view.digest(), 0u);

  const std::string generated =
      snapshot::default_manifest_json("kcc", result);
  EXPECT_NE(generated.find("\"engine\":\"sweep\""), std::string::npos);
  EXPECT_NE(generated.find("\"exactness\":\"exact\""), std::string::npos);
}

// -- rejection cases --------------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const Graph g = testing::overlapping_cliques(6, 5, 3);
    result_ = run_engine("sweep", g);
    file_ = std::make_unique<TempFile>("corrupt.snap");
    snapshot::write_snapshot_file(file_->path, result_);
    bytes_ = read_file(file_->path);
    ASSERT_GT(bytes_.size(), snapshot::kHeaderBytes);
  }

  void expect_rejected(const std::string& bytes, const std::string& why) {
    TempFile bad("bad_" + why + ".snap");
    write_file(bad.path, bytes);
    EXPECT_THROW(snapshot::SnapshotView view(bad.path), Error) << why;
  }

  cpm::Result result_;
  std::unique_ptr<TempFile> file_;
  std::string bytes_;
};

TEST_F(SnapshotCorruption, RejectsTruncatedFile) {
  // Every prefix must fail: shorter than the header, mid-table, mid-section.
  expect_rejected(bytes_.substr(0, 10), "tiny");
  expect_rejected(bytes_.substr(0, snapshot::kHeaderBytes), "header_only");
  expect_rejected(bytes_.substr(0, bytes_.size() / 2), "half");
  expect_rejected(bytes_.substr(0, bytes_.size() - 1), "one_byte_short");
}

TEST_F(SnapshotCorruption, RejectsBadMagic) {
  std::string bad = bytes_;
  bad[0] = 'X';
  expect_rejected(bad, "magic");
}

TEST_F(SnapshotCorruption, RejectsWrongVersion) {
  std::string bad = bytes_;
  bad[8] = 99;  // version field (little-endian u32 at offset 8)
  expect_rejected(bad, "version");
}

TEST_F(SnapshotCorruption, RejectsVersionOneNamingBothVersions) {
  // Version 1 files also carried the clique sections; this build reads only
  // version 2, and says so rather than guess at the old layout.
  std::string old = bytes_;
  old[8] = 1;  // version field, little-endian u32 at offset 8
  TempFile bad("v1.snap");
  write_file(bad.path, old);
  try {
    snapshot::SnapshotView view(bad.path);
    FAIL() << "version 1 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "unsupported version 1 (this build reads version 2)"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SnapshotCorruption, RejectsLevelCountThatWrapsTheLevelsSize) {
  // A forged META whose num_levels * 16 wraps to the real LEVELS size must
  // fail the count bound, not walk `levels` past its section. The digest
  // is recomputed, so only the count check stands between the file and
  // the level loop.
  std::string forged = bytes_;
  const auto load_u64 = [&forged](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, forged.data() + at, 8);
    return v;
  };
  const auto store_u64 = [&forged](std::size_t at, std::uint64_t v) {
    std::memcpy(forged.data() + at, &v, 8);
  };
  const std::size_t meta = load_u64(snapshot::kHeaderBytes + 8);  // entry 0
  const std::uint64_t levels = load_u64(meta + 16) + (std::uint64_t{1} << 60);
  store_u64(meta + 8, load_u64(meta) + levels - 1);  // max_k
  store_u64(meta + 16, levels);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t i = snapshot::kHeaderBytes; i < forged.size(); ++i) {
    digest ^= static_cast<unsigned char>(forged[i]);
    digest *= 0x100000001b3ULL;
  }
  store_u64(24, digest);
  TempFile bad("wrapped_levels.snap");
  write_file(bad.path, forged);
  try {
    snapshot::SnapshotView view(bad.path);
    FAIL() << "wrapped level count accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible counts in META"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SnapshotCorruption, RejectsDigestMismatch) {
  // Flip one payload byte: the header digest no longer matches.
  std::string bad = bytes_;
  bad[bytes_.size() - 1] ^= 0x40;
  expect_rejected(bad, "payload_flip");
  // And a doctored digest with intact payload must fail too.
  std::string forged = bytes_;
  forged[24] ^= 0x01;  // digest field at offset 24
  expect_rejected(forged, "digest_forged");
}

TEST_F(SnapshotCorruption, RejectsTrailingGarbage) {
  expect_rejected(bytes_ + std::string(8, '\0'), "appended");
}

TEST_F(SnapshotCorruption, RejectsMissingFile) {
  EXPECT_THROW(snapshot::SnapshotView view(temp_path("does_not_exist.snap")),
               Error);
}

TEST_F(SnapshotCorruption, ValidFileStillLoadsAfterAllThat) {
  // Guard against the fixture accidentally testing a broken writer.
  snapshot::SnapshotView view(file_->path);
  EXPECT_EQ(cpm::canonical_text(view.to_result(), kServed),
            cpm::canonical_text(result_, kServed));
}

}  // namespace
}  // namespace kcc
