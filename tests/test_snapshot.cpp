// Snapshot round-trip identity and corruption rejection (io/snapshot.h).
//
// The contract under test: for every registry engine and every seeded graph
// family, write -> mmap -> to_result() reproduces the in-memory cpm::Result
// byte-identically under cpm::canonical_text; and any structural damage to
// the file (truncation, bad magic, wrong version, flipped payload bytes) is
// rejected loudly at open, never served as partial data.

#include <gtest/gtest.h>

#include <cstdio>
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

cpm::Result run_engine(const std::string& engine, const Graph& g) {
  cpm::Options options;
  options.engine = engine;
  options.threads = 2;
  return cpm::Engine(options).run(g);
}

void expect_round_trip(const cpm::Result& original, const std::string& tag) {
  TempFile file(tag + ".snap");
  snapshot::write_snapshot_file(file.path, original);

  snapshot::SnapshotView view(file.path);
  EXPECT_EQ(view.engine_name(), original.engine_name) << tag;
  EXPECT_EQ(view.exactness(), original.exactness) << tag;
  EXPECT_EQ(view.has_tree(), original.has_tree) << tag;
  EXPECT_EQ(view.num_cliques(), original.cpm.cliques.size()) << tag;

  const cpm::Result reread = view.to_result();
  // canonical_text covers cliques, per-k communities with clique ids, the
  // clique->community maps and the full tree, so equality here is the
  // byte-identity contract.
  cpm::CanonicalOptions canon;
  EXPECT_EQ(cpm::canonical_text(original, canon),
            cpm::canonical_text(reread, canon))
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
    EXPECT_THROW(snapshot::read_snapshot_file(bad.path), Error) << why;
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
  EXPECT_EQ(cpm::canonical_text(view.to_result()),
            cpm::canonical_text(result_));
}

}  // namespace
}  // namespace kcc
