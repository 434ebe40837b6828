#include "cpm/clique_index.h"

#include <bit>
#include <functional>
#include <queue>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {
namespace {

// Overlap-join instruments. Candidates are the clique pairs the join
// examined: those a non-hub posting reached plus those the hub rows
// flagged; emitted pairs are the ones that met min_overlap. Both are
// accumulated per join and flushed with one atomic add.
struct OverlapMetrics {
  obs::Counter& candidates =
      obs::metrics().counter("cpm_overlap_candidates_total");
  obs::Counter& pairs = obs::metrics().counter("cpm_overlap_pairs_total");
};

OverlapMetrics& overlap_metrics() {
  static OverlapMetrics m;
  return m;
}

// Shared hubs of two cliques: a portable bit count, since the default
// build targets no popcount instruction and the libgcc fallback is a call.
std::uint32_t shared_hubs(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a & b;
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace

std::vector<std::vector<CliqueId>> build_node_clique_index(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_size) {
  std::vector<std::vector<CliqueId>> index(num_nodes);
  for (CliqueId c = 0; c < cliques.size(); ++c) {
    if (cliques[c].size() < min_size) continue;
    for (NodeId v : cliques[c]) {
      require(v < num_nodes, "build_node_clique_index: node out of range");
      index[v].push_back(c);
    }
  }
  return index;  // per-node lists are ascending because c increases
}

std::vector<std::uint8_t> choose_hubs(
    std::span<const std::uint32_t> posting_lengths) {
  // The 65th longest posting (of length >= 2) is the bar a hub must clear;
  // a min-heap of the 65 longest seen so far finds it in one pass.
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      longest;
  for (std::uint32_t len : posting_lengths) {
    if (len < 2) continue;
    if (longest.size() <= kMaxHubs) {
      longest.push(len);
    } else if (len > longest.top()) {
      longest.pop();
      longest.push(len);
    }
  }
  const std::uint32_t bar = longest.size() > kMaxHubs ? longest.top() : 1;
  std::vector<std::uint8_t> hub_bit(posting_lengths.size(), kNoHub);
  std::uint8_t next = 0;
  for (std::size_t v = 0; v < posting_lengths.size(); ++v) {
    if (posting_lengths[v] > bar) hub_bit[v] = next++;
  }
  return hub_bit;
}

void for_each_clique_overlaps(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap,
    const std::function<void(std::span<const CliqueOverlap>)>& sink) {
  require(min_overlap >= 1,
          "for_each_clique_overlaps: min_overlap must be >= 1");
  KCC_SPAN("cpm/overlap_join");
  // A clique of size <= min_overlap cannot reach min_overlap with one that
  // does not contain it, so only the larger ones are indexed, under dense
  // ranks in id order: every per-clique array below is sized by them.
  std::vector<CliqueId> ids;
  std::vector<std::uint32_t> offset(num_nodes + 1, 0);
  for (CliqueId c = 0; c < cliques.size(); ++c) {
    if (cliques[c].size() <= min_overlap) continue;
    ids.push_back(c);
    for (NodeId v : cliques[c]) {
      require(v < num_nodes, "for_each_clique_overlaps: node out of range");
      ++offset[v];
    }
  }
  const auto num_indexed = static_cast<std::uint32_t>(ids.size());
  const std::vector<std::uint8_t> hub_bit =
      choose_hubs(std::span(offset).first(num_nodes));

  // Hub masks per indexed clique; non-hub postings as one CSR, ascending
  // ranks per node. offset[v] counts v's postings down to its start.
  std::vector<std::uint64_t> mask(num_indexed, 0);
  std::uint32_t total = 0;
  for (std::size_t v = 0; v < num_nodes; ++v) {
    if (hub_bit[v] != kNoHub) offset[v] = 0;
    total += offset[v];
    offset[v] = total;
  }
  offset[num_nodes] = total;
  std::vector<std::uint32_t> postings(total);
  for (std::uint32_t r = num_indexed; r-- > 0;) {
    for (NodeId v : cliques[ids[r]]) {
      if (hub_bit[v] == kNoHub) {
        postings[--offset[v]] = r;
      } else {
        mask[r] |= std::uint64_t{1} << hub_bit[v];
      }
    }
  }

  // Rich cliques hold >= min_overlap hubs: only two of them can overlap
  // enough without a shared non-hub. One bitset row per hub over the rich
  // ranks finds those pairs.
  std::vector<std::uint32_t> rich_ids;
  for (std::uint32_t r = 0; r < num_indexed; ++r) {
    if (shared_hubs(mask[r], mask[r]) >= min_overlap) rich_ids.push_back(r);
  }
  const std::size_t words = (rich_ids.size() + 63) / 64;
  std::vector<std::uint64_t> rows(kMaxHubs * words, 0);
  for (std::size_t i = 0; i < rich_ids.size(); ++i) {
    for (std::uint64_t m = mask[rich_ids[i]]; m != 0; m &= m - 1) {
      rows[static_cast<std::size_t>(std::countr_zero(m)) * words + i / 64] |=
          std::uint64_t{1} << (i % 64);
    }
  }

  std::vector<std::uint32_t> hits(num_indexed, 0);
  std::vector<std::uint32_t> touched;
  std::vector<const std::uint64_t*> hub_rows;
  std::vector<CliqueOverlap> pairs;
  std::uint64_t candidates = 0;
  std::uint64_t emitted = 0;
  std::size_t next_rich = 0;
  for (CliqueId b = 0, rb = 0; b < cliques.size(); ++b) {
    pairs.clear();
    if (rb == num_indexed || ids[rb] != b) {
      sink(pairs);
      continue;
    }
    // Non-hub hits against every earlier clique, plus the hubs both hold.
    for (NodeId v : cliques[b]) {
      if (hub_bit[v] != kNoHub) continue;
      for (std::uint32_t i = offset[v]; i < offset[v + 1]; ++i) {
        const std::uint32_t a = postings[i];
        if (a >= rb) break;  // postings are ascending; only a < b wanted
        if (hits[a]++ == 0) touched.push_back(a);
      }
    }
    const std::uint64_t mask_b = mask[rb];
    for (std::uint32_t a : touched) {
      const std::uint32_t overlap = hits[a] + shared_hubs(mask[a], mask_b);
      if (overlap >= min_overlap) pairs.push_back({ids[a], b, overlap});
    }
    candidates += touched.size();

    // Earlier rich cliques sharing no non-hub: a saturating bit-sliced
    // count (planes 1, 2 and >= 4) of b's hub rows, word by word, up to
    // b's rich rank, flags those sharing >= min_overlap hubs (>= 4 when
    // min_overlap exceeds 3, confirmed by the exact count).
    if (next_rich < rich_ids.size() && rich_ids[next_rich] == rb) {
      const std::size_t rank = next_rich++;
      hub_rows.clear();
      for (std::uint64_t m = mask_b; m != 0; m &= m - 1) {
        hub_rows.push_back(&rows[static_cast<std::size_t>(std::countr_zero(m)) *
                                 words]);
      }
      for (std::size_t w = 0; w * 64 < rank; ++w) {
        std::uint64_t ones = 0, twos = 0, fours = 0;
        for (const std::uint64_t* row : hub_rows) {
          const std::uint64_t x = row[w];
          const std::uint64_t carry = ones & x;
          ones ^= x;
          fours |= twos & carry;
          twos ^= carry;
        }
        std::uint64_t flagged = fours;
        if (min_overlap == 1) flagged |= ones | twos;
        if (min_overlap == 2) flagged |= twos;
        if (min_overlap == 3) flagged |= ones & twos;
        if (rank - w * 64 < 64) {
          flagged &= (std::uint64_t{1} << (rank - w * 64)) - 1;
        }
        for (; flagged != 0; flagged &= flagged - 1) {
          const std::uint32_t a =
              rich_ids[w * 64 + static_cast<std::size_t>(
                                    std::countr_zero(flagged))];
          ++candidates;
          if (hits[a] != 0) continue;  // counted above, non-hubs included
          const std::uint32_t overlap = shared_hubs(mask[a], mask_b);
          if (overlap >= min_overlap) pairs.push_back({ids[a], b, overlap});
        }
      }
    }
    for (std::uint32_t a : touched) hits[a] = 0;
    touched.clear();
    ++rb;
    emitted += pairs.size();
    sink(pairs);
  }
  overlap_metrics().candidates.inc(candidates);
  overlap_metrics().pairs.inc(emitted);
}

std::vector<CliqueOverlap> compute_clique_overlaps_unsorted(
    const std::vector<NodeSet>& cliques, std::size_t num_nodes,
    std::size_t min_overlap, ThreadPool& /*pool*/) {
  std::vector<CliqueOverlap> out;
  for_each_clique_overlaps(cliques, num_nodes, min_overlap,
                           [&](std::span<const CliqueOverlap> pairs) {
                             out.insert(out.end(), pairs.begin(), pairs.end());
                           });
  return out;
}

}  // namespace kcc
