#include "serve/query.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace kcc::serve {
namespace {

void reply_error(std::vector<std::uint8_t>& response, Status status,
                 const std::string& message) {
  response.clear();
  put_u8(response, static_cast<std::uint8_t>(status));
  response.insert(response.end(), message.begin(), message.end());
}

void reply_ok(std::vector<std::uint8_t>& response) {
  put_u8(response, static_cast<std::uint8_t>(Status::kOk));
}

void do_info(const snapshot::SnapshotView& view,
             std::vector<std::uint8_t>& response) {
  reply_ok(response);
  put_u64(response, view.min_k());
  put_u64(response, view.max_k());
  put_u64(response, view.num_nodes());
  put_u64(response, view.num_communities());
  put_u8(response, view.has_tree() ? 1 : 0);
  put_u8(response, static_cast<std::uint8_t>(view.exactness()));
  const auto name = view.engine_name();
  put_u16(response, static_cast<std::uint16_t>(name.size()));
  response.insert(response.end(), name.begin(), name.end());
}

void do_membership(const snapshot::SnapshotView& view, Reader& in,
                   std::vector<std::uint8_t>& response) {
  const std::uint32_t node = in.u32();
  const std::uint32_t k = in.u32();
  require(in.remaining() == 0, "membership: trailing bytes");
  require(k == 0 || view.has_k(k),
          "membership: k=", k, " outside the snapshot");
  reply_ok(response);
  const auto postings = view.postings(node);
  std::uint32_t count = 0;
  const std::size_t count_at = response.size();
  put_u32(response, 0);  // patched below
  for (const snapshot::Posting& p : postings) {
    if (k != 0 && p.k != k) continue;
    put_u32(response, p.k);
    put_u32(response, p.community);
    ++count;
  }
  std::memcpy(response.data() + count_at, &count, 4);
}

void do_community(const snapshot::SnapshotView& view, Reader& in,
                  std::vector<std::uint8_t>& response) {
  const std::uint32_t k = in.u32();
  const std::uint32_t id = in.u32();
  require(in.remaining() == 0, "community: trailing bytes");
  const auto nodes = view.community_nodes(k, id);  // validates (k, id)
  reply_ok(response);
  put_u32(response, static_cast<std::uint32_t>(nodes.size()));
  for (std::uint32_t v : nodes) put_u32(response, v);
}

void do_ancestry(const snapshot::SnapshotView& view, Reader& in,
                 std::vector<std::uint8_t>& response) {
  std::uint32_t k = in.u32();
  std::uint32_t id = in.u32();
  require(in.remaining() == 0, "ancestry: trailing bytes");
  view.community_nodes(k, id);  // validate before replying
  reply_ok(response);
  put_u32(response, k - static_cast<std::uint32_t>(view.min_k()) + 1);
  while (true) {
    put_u32(response, k);
    put_u32(response, id);
    put_u32(response,
            static_cast<std::uint32_t>(view.community_nodes(k, id).size()));
    if (k == view.min_k()) break;
    id = view.parent_of(k, id);
    --k;
  }
}

void do_lca(const snapshot::SnapshotView& view, Reader& in,
            std::vector<std::uint8_t>& response) {
  std::uint32_t k1 = in.u32(), id1 = in.u32();
  std::uint32_t k2 = in.u32(), id2 = in.u32();
  require(in.remaining() == 0, "lca: trailing bytes");
  view.community_nodes(k1, id1);  // validate both endpoints up front
  view.community_nodes(k2, id2);
  // Walk the deeper endpoint up to the shallower one's level, then both in
  // lockstep until the ids meet (or the bottom level proves them disjoint).
  while (k1 > k2) { id1 = view.parent_of(k1, id1); --k1; }
  while (k2 > k1) { id2 = view.parent_of(k2, id2); --k2; }
  while (id1 != id2 && k1 > view.min_k()) {
    id1 = view.parent_of(k1, id1);
    id2 = view.parent_of(k1, id2);
    --k1;
  }
  reply_ok(response);
  if (id1 == id2) {
    put_u8(response, 1);
    put_u32(response, k1);
    put_u32(response, id1);
  } else {
    put_u8(response, 0);
  }
}

void do_overlap(const snapshot::SnapshotView& view, Reader& in,
                std::vector<std::uint8_t>& response) {
  const std::uint32_t u = in.u32();
  const std::uint32_t v = in.u32();
  require(in.remaining() == 0, "overlap: trailing bytes");
  const auto pu = view.postings(u);
  const auto pv = view.postings(v);
  // Both lists are (k, id)-ascending; one linear merge finds every common
  // community, and the running maximum tracks the deepest co-membership.
  std::uint32_t max_k = 0, witness = 0, count = 0;
  std::size_t i = 0, j = 0;
  while (i < pu.size() && j < pv.size()) {
    const auto a = std::make_pair(pu[i].k, pu[i].community);
    const auto b = std::make_pair(pv[j].k, pv[j].community);
    if (a < b) {
      ++i;
    } else if (b < a) {
      ++j;
    } else {
      if (pu[i].k > max_k) {
        max_k = pu[i].k;
        witness = pu[i].community;
        count = 0;
      }
      if (pu[i].k == max_k) ++count;
      ++i;
      ++j;
    }
  }
  reply_ok(response);
  put_u32(response, max_k);
  put_u32(response, witness);
  put_u32(response, count);
}

}  // namespace

QueryAction evaluate(const snapshot::SnapshotView& view,
                     const std::uint8_t* request, std::size_t request_bytes,
                     std::vector<std::uint8_t>& response,
                     bool allow_shutdown, bool allow_reload) {
  response.clear();
  try {
    Reader in(request, request_bytes);
    const auto op = static_cast<Op>(in.u8());
    switch (op) {
      case Op::kInfo:
        require(in.remaining() == 0, "info: trailing bytes");
        do_info(view, response);
        return QueryAction::kReply;
      case Op::kMembership:
        do_membership(view, in, response);
        return QueryAction::kReply;
      case Op::kCommunity:
        do_community(view, in, response);
        return QueryAction::kReply;
      case Op::kAncestry:
      case Op::kLca:
        if (!view.has_tree()) {
          reply_error(response, Status::kUnsupported,
                      "snapshot carries no community tree");
          return QueryAction::kReply;
        }
        if (op == Op::kAncestry) {
          do_ancestry(view, in, response);
        } else {
          do_lca(view, in, response);
        }
        return QueryAction::kReply;
      case Op::kOverlap:
        do_overlap(view, in, response);
        return QueryAction::kReply;
      case Op::kShutdown:
        require(in.remaining() == 0, "shutdown: trailing bytes");
        if (!allow_shutdown) {
          reply_error(response, Status::kShuttingDown,
                      "remote shutdown disabled (--no-remote-shutdown)");
          return QueryAction::kReply;
        }
        reply_ok(response);
        return QueryAction::kShutdown;
      case Op::kReload:
        require(in.remaining() == 0, "reload: trailing bytes");
        if (!allow_reload) {
          reply_error(response, Status::kUnsupported,
                      "remote reload disabled (--no-remote-reload)");
          return QueryAction::kReply;
        }
        reply_ok(response);  // overwritten by the caller if the swap fails
        return QueryAction::kReload;
    }
    reply_error(response, Status::kBadRequest,
                "unknown op " + std::to_string(static_cast<int>(op)));
  } catch (const Error& error) {
    reply_error(response, Status::kBadRequest, error.what());
  }
  return QueryAction::kReply;
}

}  // namespace kcc::serve
