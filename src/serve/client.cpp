#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/error.h"

namespace kcc::serve {
namespace {

int connect_once(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd >= 0, "serve client: socket() failed: ", std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Client::Client(const std::string& socket_path, double timeout_seconds) {
  require(socket_path.size() < sizeof(sockaddr_un{}.sun_path),
          "serve client: socket path too long: '", socket_path, "'");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (true) {
    fd_ = connect_once(socket_path);
    if (fd_ >= 0) return;
    if (std::chrono::steady_clock::now() >= deadline) {
      throw Error("serve client: cannot connect to '" + socket_path +
                  "' within " + std::to_string(timeout_seconds) + "s: " +
                  std::strerror(errno));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_request(const std::vector<std::uint8_t>& payload) {
  write_frame(fd_, payload);
}

std::vector<std::uint8_t> Client::read_response() {
  std::vector<std::uint8_t> payload;
  require(read_frame(fd_, payload, kMaxResponseBytes),
          "serve client: server closed the connection");
  require(!payload.empty(), "serve client: empty response frame");
  return payload;
}

std::vector<std::uint8_t> Client::call(
    const std::vector<std::uint8_t>& request) {
  send_request(request);
  std::vector<std::uint8_t> payload = read_response();
  const auto status = static_cast<Status>(payload[0]);
  if (status != Status::kOk) {
    throw Error("serve client: server error (status " +
                std::to_string(payload[0]) + "): " +
                std::string(payload.begin() + 1, payload.end()));
  }
  payload.erase(payload.begin());  // drop the status byte
  return payload;
}

ServerInfo Client::info() {
  const auto payload = call(encode_info());
  Reader in(payload);
  ServerInfo info;
  info.min_k = in.u64();
  info.max_k = in.u64();
  info.num_nodes = in.u64();
  info.num_communities = in.u64();
  info.has_tree = in.u8() != 0;
  info.exactness = in.u8();
  info.engine = in.bytes(in.u16());
  return info;
}

std::vector<Membership> Client::membership(std::uint32_t node,
                                           std::uint32_t k) {
  const auto payload = call(encode_membership(node, k));
  Reader in(payload);
  std::vector<Membership> out(in.u32());
  for (Membership& m : out) {
    m.k = in.u32();
    m.id = in.u32();
  }
  return out;
}

std::vector<std::uint32_t> Client::community(std::uint32_t k,
                                             std::uint32_t id) {
  const auto payload = call(encode_community(k, id));
  Reader in(payload);
  std::vector<std::uint32_t> nodes(in.u32());
  for (std::uint32_t& v : nodes) v = in.u32();
  return nodes;
}

std::vector<AncestryEntry> Client::ancestry(std::uint32_t k,
                                            std::uint32_t id) {
  const auto payload = call(encode_ancestry(k, id));
  Reader in(payload);
  std::vector<AncestryEntry> out(in.u32());
  for (AncestryEntry& entry : out) {
    entry.k = in.u32();
    entry.id = in.u32();
    entry.size = in.u32();
  }
  return out;
}

std::optional<Membership> Client::lca(std::uint32_t k1, std::uint32_t id1,
                                      std::uint32_t k2, std::uint32_t id2) {
  const auto payload = call(encode_lca(k1, id1, k2, id2));
  Reader in(payload);
  if (in.u8() == 0) return std::nullopt;
  Membership m;
  m.k = in.u32();
  m.id = in.u32();
  return m;
}

Overlap Client::overlap(std::uint32_t u, std::uint32_t v) {
  const auto payload = call(encode_overlap(u, v));
  Reader in(payload);
  Overlap o;
  o.max_k = in.u32();
  o.community = in.u32();
  o.count = in.u32();
  return o;
}

Status Client::request_shutdown() {
  send_request(encode_shutdown());
  const auto payload = read_response();
  return static_cast<Status>(payload[0]);
}

Status Client::request_reload() {
  send_request(encode_reload());
  const auto payload = read_response();
  return static_cast<Status>(payload[0]);
}

std::vector<std::uint8_t> encode_info() {
  std::vector<std::uint8_t> out;
  put_u8(out, static_cast<std::uint8_t>(Op::kInfo));
  return out;
}

std::vector<std::uint8_t> encode_membership(std::uint32_t node,
                                            std::uint32_t k) {
  std::vector<std::uint8_t> out;
  put_u8(out, static_cast<std::uint8_t>(Op::kMembership));
  put_u32(out, node);
  put_u32(out, k);
  return out;
}

std::vector<std::uint8_t> encode_community(std::uint32_t k,
                                           std::uint32_t id) {
  std::vector<std::uint8_t> out;
  put_u8(out, static_cast<std::uint8_t>(Op::kCommunity));
  put_u32(out, k);
  put_u32(out, id);
  return out;
}

std::vector<std::uint8_t> encode_ancestry(std::uint32_t k, std::uint32_t id) {
  std::vector<std::uint8_t> out;
  put_u8(out, static_cast<std::uint8_t>(Op::kAncestry));
  put_u32(out, k);
  put_u32(out, id);
  return out;
}

std::vector<std::uint8_t> encode_lca(std::uint32_t k1, std::uint32_t id1,
                                     std::uint32_t k2, std::uint32_t id2) {
  std::vector<std::uint8_t> out;
  put_u8(out, static_cast<std::uint8_t>(Op::kLca));
  put_u32(out, k1);
  put_u32(out, id1);
  put_u32(out, k2);
  put_u32(out, id2);
  return out;
}

std::vector<std::uint8_t> encode_overlap(std::uint32_t u, std::uint32_t v) {
  std::vector<std::uint8_t> out;
  put_u8(out, static_cast<std::uint8_t>(Op::kOverlap));
  put_u32(out, u);
  put_u32(out, v);
  return out;
}

std::vector<std::uint8_t> encode_shutdown() {
  std::vector<std::uint8_t> out;
  put_u8(out, static_cast<std::uint8_t>(Op::kShutdown));
  return out;
}

std::vector<std::uint8_t> encode_reload() {
  std::vector<std::uint8_t> out;
  put_u8(out, static_cast<std::uint8_t>(Op::kReload));
  return out;
}

}  // namespace kcc::serve
