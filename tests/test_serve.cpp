// In-process tests of the serve daemon: a real Server on a unix socket,
// driven through serve::Client, with every answer checked against an oracle
// computed directly from the in-memory cpm::Result. Also covers protocol
// abuse (malformed frames, oversized frames, out-of-range arguments),
// pipelining, concurrent clients, both shutdown paths and the joining of
// closed connections' threads.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "cpm/engine.h"
#include "io/snapshot.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query.h"
#include "serve/server.h"
#include "test_helpers.h"

namespace kcc {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("kcc_serve_" + name))
      .string();
}

/// The shared fixture graph, result and snapshot file — computed once for
/// the whole binary (the servers themselves are per-test).
struct Fixture {
  Graph graph;
  cpm::Result result;
  std::string snapshot_path;

  Fixture()
      : graph(testing::preferential_attachment_graph(80, 4, 9)),
        result(cpm::Engine(cpm::Options{}).run(graph)),
        snapshot_path(temp_path("fixture.snap")) {
    snapshot::write_snapshot_file(snapshot_path, result);
  }
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

// -- oracle: the same queries answered from the in-memory Result ------------

std::vector<serve::Membership> oracle_membership(const cpm::Result& r,
                                                 std::uint32_t node,
                                                 std::uint32_t k_filter) {
  std::vector<serve::Membership> out;
  for (std::size_t k = r.cpm.min_k; k <= r.cpm.max_k; ++k) {
    if (k_filter != 0 && k != k_filter) continue;
    for (const Community& c : r.cpm.at(k).communities) {
      if (std::binary_search(c.nodes.begin(), c.nodes.end(), node)) {
        out.push_back({static_cast<std::uint32_t>(k), c.id});
      }
    }
  }
  return out;
}

std::uint32_t oracle_parent(const cpm::Result& r, std::uint32_t k,
                            std::uint32_t id) {
  const TreeNode& node = r.tree.nodes()[r.tree.index_of(k, id)];
  return static_cast<std::uint32_t>(r.tree.nodes()[node.parent].community_id);
}

std::vector<serve::AncestryEntry> oracle_ancestry(const cpm::Result& r,
                                                  std::uint32_t k,
                                                  std::uint32_t id) {
  std::vector<serve::AncestryEntry> out;
  while (true) {
    out.push_back({k, id,
                   static_cast<std::uint32_t>(
                       r.cpm.at(k).communities[id].nodes.size())});
    if (k == r.cpm.min_k) break;
    id = oracle_parent(r, k, id);
    --k;
  }
  return out;
}

std::optional<serve::Membership> oracle_lca(const cpm::Result& r,
                                            std::uint32_t k1,
                                            std::uint32_t id1,
                                            std::uint32_t k2,
                                            std::uint32_t id2) {
  while (k1 > k2) { id1 = oracle_parent(r, k1, id1); --k1; }
  while (k2 > k1) { id2 = oracle_parent(r, k2, id2); --k2; }
  while (id1 != id2 && k1 > r.cpm.min_k) {
    id1 = oracle_parent(r, k1, id1);
    id2 = oracle_parent(r, k1, id2);
    --k1;
  }
  if (id1 != id2) return std::nullopt;
  return serve::Membership{k1, id1};
}

serve::Overlap oracle_overlap(const cpm::Result& r, std::uint32_t u,
                              std::uint32_t v) {
  serve::Overlap o;
  for (std::size_t k = r.cpm.min_k; k <= r.cpm.max_k; ++k) {
    for (const Community& c : r.cpm.at(k).communities) {
      if (std::binary_search(c.nodes.begin(), c.nodes.end(), u) &&
          std::binary_search(c.nodes.begin(), c.nodes.end(), v)) {
        if (k > o.max_k) {
          o.max_k = static_cast<std::uint32_t>(k);
          o.community = c.id;  // ids ascend, so the first hit is the witness
          o.count = 0;
        }
        ++o.count;
      }
    }
  }
  return o;
}

/// A running server on its own socket, torn down with the test.
struct LiveServer {
  explicit LiveServer(const std::string& tag, bool allow_remote = true)
      : socket_path(temp_path(tag + ".sock")) {
    serve::ServerOptions options;
    options.socket_path = socket_path;
    options.allow_remote_shutdown = allow_remote;
    server = std::make_unique<serve::Server>(fixture().snapshot_path,
                                             std::move(options));
    server->start();
  }

  std::string socket_path;
  std::unique_ptr<serve::Server> server;
};

void check_query_mix(serve::Client& client, const cpm::Result& r,
                     std::uint32_t salt) {
  const auto num_nodes =
      static_cast<std::uint32_t>(fixture().graph.num_nodes());
  for (std::uint32_t step = 0; step < 40; ++step) {
    const std::uint32_t node = (step * 13 + salt) % num_nodes;
    EXPECT_EQ(client.membership(node), oracle_membership(r, node, 0));
    const std::uint32_t other = (node + 7 + salt) % num_nodes;
    EXPECT_EQ(client.overlap(node, other), oracle_overlap(r, node, other));
  }
  for (std::size_t k = r.cpm.min_k; k <= r.cpm.max_k; ++k) {
    const CommunitySet& set = r.cpm.at(k);
    for (const Community& c : set.communities) {
      EXPECT_EQ(client.community(k, c.id), c.nodes) << "k=" << k;
      EXPECT_EQ(client.ancestry(k, c.id), oracle_ancestry(r, k, c.id))
          << "k=" << k;
    }
    // LCA of the first and last community at this level vs the apex chain.
    if (set.count() >= 2) {
      const std::uint32_t a = 0, b = set.count() - 1;
      EXPECT_EQ(client.lca(k, a, k, b), oracle_lca(r, k, a, k, b))
          << "k=" << k;
    }
  }
}

// -- tests ------------------------------------------------------------------

TEST(Serve, InfoMatchesSnapshot) {
  LiveServer live("info");
  serve::Client client(live.socket_path);
  const serve::ServerInfo info = client.info();
  const cpm::Result& r = fixture().result;
  EXPECT_EQ(info.min_k, r.cpm.min_k);
  EXPECT_EQ(info.max_k, r.cpm.max_k);
  EXPECT_EQ(info.num_communities, r.cpm.total_communities());
  EXPECT_TRUE(info.has_tree);
  EXPECT_EQ(info.engine, r.engine_name);
  EXPECT_EQ(info.exactness, static_cast<std::uint8_t>(r.exactness));
}

TEST(Serve, QueryMixMatchesOracle) {
  LiveServer live("mix");
  serve::Client client(live.socket_path);
  check_query_mix(client, fixture().result, /*salt=*/0);
}

TEST(Serve, ConcurrentClientsAgree) {
  LiveServer live("concurrent");
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < 4; ++t) {
    workers.emplace_back([&live, t] {
      serve::Client client(live.socket_path);
      check_query_mix(client, fixture().result, /*salt=*/t * 17 + 1);
    });
  }
  for (std::thread& w : workers) w.join();
}

TEST(Serve, PipelinedResponsesArriveInOrder) {
  LiveServer live("pipeline");
  serve::Client client(live.socket_path);
  const cpm::Result& r = fixture().result;
  const std::uint32_t depth = 64;
  for (std::uint32_t i = 0; i < depth; ++i) {
    client.send_request(serve::encode_membership(i % 80, 0));
  }
  for (std::uint32_t i = 0; i < depth; ++i) {
    std::vector<std::uint8_t> payload = client.read_response();
    ASSERT_EQ(payload[0], static_cast<std::uint8_t>(serve::Status::kOk));
    serve::Reader in(payload.data() + 1, payload.size() - 1);
    EXPECT_EQ(in.u32(), oracle_membership(r, i % 80, 0).size()) << i;
  }
}

TEST(Serve, MalformedRequestsGetBadRequestAndConnectionSurvives) {
  LiveServer live("malformed");
  serve::Client client(live.socket_path);
  const std::vector<std::vector<std::uint8_t>> bad = {
      {},                            // no op byte
      {99},                          // unknown op
      {2, 1, 0, 0},                  // membership with truncated fields
      {3, 0, 0, 0, 0, 0, 0, 0, 0, 7},  // community with trailing bytes
  };
  for (const auto& request : bad) {
    client.send_request(request);
    const auto payload = client.read_response();
    EXPECT_EQ(payload[0],
              static_cast<std::uint8_t>(serve::Status::kBadRequest));
  }
  // The connection stays usable after every rejection.
  EXPECT_EQ(client.info().engine, fixture().result.engine_name);
}

TEST(Serve, OutOfRangeArgumentsAreBadRequests) {
  LiveServer live("range");
  serve::Client client(live.socket_path);
  EXPECT_THROW(client.community(2, 0xFFFFFF), Error);
  EXPECT_THROW(client.community(9999, 0), Error);
  EXPECT_THROW(client.membership(0, 9999), Error);
  EXPECT_THROW(client.ancestry(9999, 0), Error);
  // A node id beyond the graph is not an error — just an empty answer.
  EXPECT_TRUE(client.membership(1 << 20).empty());
}

TEST(Serve, OversizedFrameDropsOnlyThatConnection) {
  LiveServer live("oversized");
  serve::Client victim(live.socket_path);
  std::vector<std::uint8_t> huge_prefix;
  serve::put_u32(huge_prefix, serve::kMaxRequestBytes + 1);
  serve::write_all(victim.fd(), huge_prefix.data(), huge_prefix.size());
  EXPECT_THROW(victim.read_response(), Error);  // server dropped us
  // The server itself is unharmed.
  serve::Client fresh(live.socket_path);
  EXPECT_EQ(fresh.info().engine, fixture().result.engine_name);
}

TEST(Serve, TreelessSnapshotAnswersUnsupportedForTreeOps) {
  cpm::Options options;
  options.build_tree = false;
  const cpm::Result result = cpm::Engine(options).run(fixture().graph);
  ASSERT_FALSE(result.has_tree);
  const std::string path = temp_path("treeless.snap");
  snapshot::write_snapshot_file(path, result);
  snapshot::SnapshotView view(path);

  std::vector<std::uint8_t> response;
  const auto request = serve::encode_ancestry(result.cpm.min_k, 0);
  serve::evaluate(view, request.data(), request.size(), response,
                  /*allow_shutdown=*/true);
  EXPECT_EQ(response[0],
            static_cast<std::uint8_t>(serve::Status::kUnsupported));
  // Non-tree queries still work.
  const auto member = serve::encode_membership(0, 0);
  serve::evaluate(view, member.data(), member.size(), response, true);
  EXPECT_EQ(response[0], static_cast<std::uint8_t>(serve::Status::kOk));
  std::remove(path.c_str());
}

TEST(Serve, RemoteShutdownStopsTheWaiter) {
  LiveServer live("shutdown");
  std::thread waiter([&live] { live.server->wait(); });
  {
    serve::Client client(live.socket_path);
    EXPECT_EQ(client.request_shutdown(), serve::Status::kOk);
  }
  waiter.join();  // wait() returns only after a full teardown
  EXPECT_TRUE(live.server->stopping());
}

TEST(Serve, RemoteShutdownCanBeDisabled) {
  LiveServer live("noshutdown", /*allow_remote=*/false);
  serve::Client client(live.socket_path);
  EXPECT_EQ(client.request_shutdown(), serve::Status::kShuttingDown);
  // Refusal leaves the server fully operational.
  EXPECT_EQ(client.info().engine, fixture().result.engine_name);
  live.server->shutdown();
  EXPECT_TRUE(live.server->stopping());
}

/// This process's virtual size in MB (VmSize in /proc/self/status).
double vm_size_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stod(line.substr(7)) / 1024.0;  // the field is in kB
    }
  }
  ADD_FAILURE() << "no VmSize line in /proc/self/status";
  return 0.0;
}

TEST(Serve, ClosedConnectionsDoNotKeepTheirThreads) {
  // Every connection thread holds a stack (8 MB of address space by
  // default) until it is joined. A server that joins them only at shutdown
  // grows by that much per connection ever accepted.
  LiveServer live("reap");
  { serve::Client(live.socket_path).info(); }  // warm up thread + stack
  const double before = vm_size_mb();
  for (int i = 0; i < 32; ++i) {
    serve::Client client(live.socket_path);
    EXPECT_EQ(client.info().engine, fixture().result.engine_name);
  }
  EXPECT_LT(vm_size_mb() - before, 64.0);
}

TEST(Serve, StaleSocketFileIsReplaced) {
  const std::string path = temp_path("stale.sock");
  // Simulate a crashed daemon: bind a socket file, then abandon it without
  // unlinking (closing the fd leaves the filesystem entry behind).
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ::close(fd);
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    LiveServer live("stale");  // same path: must unlink + rebind cleanly
    serve::Client client(live.socket_path);
    EXPECT_EQ(client.info().min_k, fixture().result.cpm.min_k);
  }
  // A non-socket file at the path is refused instead of clobbered.
  { std::ofstream out(path); out << "precious"; }
  serve::ServerOptions options;
  options.socket_path = path;
  EXPECT_THROW(serve::Server(fixture().snapshot_path, std::move(options)),
               Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kcc
