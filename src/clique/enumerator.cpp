#include "clique/enumerator.h"

#include "clique/bron_kerbosch_internal.h"
#include "common/error.h"

namespace kcc::clique {
namespace {

// Hub-fallback default: 2048 members cap the per-worker row blocks at
// 2048^2 bits = 512 KiB, comfortably inside L2 on the target machines.
constexpr std::size_t kDefaultBitsetMaxUniverse = 2048;

}  // namespace

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kSparse:
      return "sparse";
    case Backend::kBitset:
      return "bitset";
  }
  return "unknown";
}

Backend parse_backend(const std::string& name) {
  if (name == "auto") return Backend::kAuto;
  if (name == "sparse") return Backend::kSparse;
  if (name == "bitset") return Backend::kBitset;
  throw Error("unknown clique backend '" + name + "' (auto|sparse|bitset)");
}

Enumerator::Enumerator(const Graph& g, Options options)
    : g_(g), options_(options), resolved_(options.backend),
      deg_(degeneracy_order(g)) {
  require(options_.min_size >= 1, "clique::Enumerator: min_size must be >= 1");
  if (options_.bitset_max_universe == 0) {
    options_.bitset_max_universe = kDefaultBitsetMaxUniverse;
  }
  if (resolved_ == Backend::kAuto) {
    // Near-treelike graphs (degeneracy < 3 means no subproblem holds more
    // than a couple of candidates) gain nothing from building bit rows;
    // everything denser does. This also keeps `auto` a genuinely distinct
    // point in the differential matrix on real topologies.
    resolved_ =
        deg_.degeneracy >= 3 ? Backend::kBitset : Backend::kSparse;
  }
  if (resolved_ == Backend::kBitset) {
    bits_ = std::make_unique<BitGraph>(g_, deg_);
  }
}

Enumerator::~Enumerator() = default;

namespace {

detail::EnumContext make_context(const Graph& g, const DegeneracyResult& deg,
                                 const BitGraph* bits,
                                 const Options& options) {
  detail::EnumContext ctx{g, deg};
  ctx.bits = bits;
  ctx.min_size = options.min_size;
  ctx.bitset_max_universe = options.bitset_max_universe;
  return ctx;
}

}  // namespace

void Enumerator::for_each_ref(const CliqueSinkRef& sink) const {
  detail::enumerate_sequential(
      make_context(g_, deg_, bits_.get(), options_), sink);
}

std::vector<NodeSet> Enumerator::collect() const {
  std::vector<NodeSet> out;
  for_each([&](std::span<const NodeId> clique) {
    out.emplace_back(clique.begin(), clique.end());
  });
  return out;
}

std::vector<NodeSet> Enumerator::collect(ThreadPool& pool) const {
  return detail::collect_parallel(
      make_context(g_, deg_, bits_.get(), options_), pool);
}

}  // namespace kcc::clique
