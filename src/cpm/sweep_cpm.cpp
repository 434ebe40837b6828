#include "cpm/sweep_cpm.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <span>
#include <utility>

#include "clique/enumerator.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "common/union_find.h"
#include "cpm/percolate_detail.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcc {
namespace {

namespace fs = std::filesystem;

// 8 bytes per overlap pair — vs 12 in CliqueOverlap, whose overlap field is
// encoded here by which bucket the pair lives in.
struct PackedPair {
  CliqueId a = 0;
  CliqueId b = 0;
};

constexpr std::uint64_t kSpillChunkBytes = 64 * 1024;
constexpr std::size_t kSpillChunkPairs = kSpillChunkBytes / sizeof(PackedPair);

// Cached instrument handles (see obs/metrics.h: lookup locks, updates don't).
struct SweepMetrics {
  obs::Counter& pairs = obs::metrics().counter("cpm_sweep_pairs_total");
  obs::Counter& spilled_pairs =
      obs::metrics().counter("cpm_sweep_spilled_pairs_total");
  obs::Counter& spill_bytes =
      obs::metrics().counter("cpm_sweep_spill_bytes_total");
  obs::Gauge& resident_bytes =
      obs::metrics().gauge("cpm_sweep_resident_pair_bytes");
  obs::Gauge& rss_bytes = obs::metrics().gauge("cpm_sweep_rss_bytes");
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics m;
  return m;
}

// The overlap pairs, one bucket per overlap value: the buckets double as
// the descending counting sort. Under a memory budget, every resident
// bucket is appended to its spill file whenever the resident pairs exceed
// the budget; draining a bucket streams its spilled prefix back in fixed
// chunks, then unites its resident tail.
class PairBuckets {
 public:
  PairBuckets(std::size_t num_buckets, const CpmOptions& options,
              const char* caller)
      : buckets_(num_buckets), options_(options), caller_(caller) {}

  ~PairBuckets() {
    if (spill_dir_.empty()) return;
    for (Bucket& bucket : buckets_) bucket.spill_out.close();
    std::error_code ec;  // best-effort cleanup, errors already reported
    fs::remove_all(spill_dir_, ec);
  }

  PairBuckets(const PairBuckets&) = delete;
  PairBuckets& operator=(const PairBuckets&) = delete;

  void add(std::size_t overlap, CliqueId a, CliqueId b) {
    // Two distinct maximal cliques share at most min(|A|, |B|) - 1 nodes.
    require(overlap < buckets_.size(), caller_, ": overlap ", overlap,
            " exceeds the clique-size bound");
    buckets_[overlap].resident.push_back(PackedPair{a, b});
    resident_bytes_ += sizeof(PackedPair);
    ++stats_.pairs;
    if (options_.memory_budget != 0 &&
        resident_bytes_ > options_.memory_budget) {
      spill_all();
    }
  }

  // The join is done: settle the peak and publish the pair-store metrics.
  void finish_fill() {
    note_peak();
    for (const Bucket& bucket : buckets_) {
      if (!bucket.resident.empty() || bucket.spilled_pairs > 0) {
        ++stats_.buckets;
      }
    }
    SweepMetrics& m = sweep_metrics();
    m.pairs.inc(stats_.pairs);
    m.rss_bytes.set(static_cast<std::int64_t>(obs::current_rss_bytes()));
  }

  // Unites every pair of one overlap value. Order within the bucket does
  // not affect the components, hence not the output.
  std::uint64_t drain(std::size_t overlap, UnionFind& uf) {
    if (overlap >= buckets_.size()) return 0;
    Bucket& bucket = buckets_[overlap];
    std::uint64_t united = 0;
    if (bucket.spilled_pairs > 0) {
      bucket.spill_out.close();
      const fs::path path = spill_path(overlap);
      std::ifstream in(path, std::ios::binary);
      require(in.good(), caller_, ": cannot reopen spill file ",
              path.native());
      std::vector<PackedPair> chunk(kSpillChunkPairs);
      std::uint64_t remaining = bucket.spilled_pairs;
      while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, chunk.size()));
        in.read(reinterpret_cast<char*>(chunk.data()),
                static_cast<std::streamsize>(n * sizeof(PackedPair)));
        require(static_cast<std::size_t>(in.gcount()) ==
                    n * sizeof(PackedPair),
                caller_, ": spill file truncated: ", path.native());
        for (std::size_t i = 0; i < n; ++i) uf.unite(chunk[i].a, chunk[i].b);
        remaining -= n;
      }
      in.close();
      std::error_code ec;
      fs::remove(path, ec);
      united += bucket.spilled_pairs;
      bucket.spilled_pairs = 0;
    }
    for (const PackedPair& p : bucket.resident) uf.unite(p.a, p.b);
    united += bucket.resident.size();
    resident_bytes_ -= bucket.resident.size() * sizeof(PackedPair);
    release(bucket.resident);
    return united;
  }

  const SweepCpmStats& stats() const { return stats_; }

 private:
  struct Bucket {
    std::vector<PackedPair> resident;
    std::uint64_t spilled_pairs = 0;
    std::ofstream spill_out;  // open iff spilled_pairs > 0
  };

  static void release(std::vector<PackedPair>& v) {
    v.clear();
    v.shrink_to_fit();
  }

  // Resident bytes only grow between spills, so sampling right before
  // each spill and at the end of the fill sees every peak.
  void note_peak() {
    stats_.resident_pair_bytes_peak =
        std::max(stats_.resident_pair_bytes_peak, resident_bytes_);
    sweep_metrics().resident_bytes.set(
        static_cast<std::int64_t>(resident_bytes_));
  }

  void spill_all() {
    KCC_SPAN("sweep_cpm/spill");
    note_peak();
    for (std::size_t o = 0; o < buckets_.size(); ++o) {
      if (!buckets_[o].resident.empty()) spill_bucket(o);
    }
  }

  void spill_bucket(std::size_t overlap) {
    Bucket& bucket = buckets_[overlap];
    if (!bucket.spill_out.is_open()) {
      const fs::path path = spill_path(overlap);
      bucket.spill_out.open(path, std::ios::binary | std::ios::app);
      require(bucket.spill_out.good(), caller_, ": cannot open spill file ",
              path.native());
      ++stats_.spilled_buckets;
    }
    const std::uint64_t bytes = bucket.resident.size() * sizeof(PackedPair);
    bucket.spill_out.write(
        reinterpret_cast<const char*>(bucket.resident.data()),
        static_cast<std::streamsize>(bytes));
    require(bucket.spill_out.good(), caller_, ": spill write failed");
    bucket.spilled_pairs += bucket.resident.size();
    stats_.spilled_pairs += bucket.resident.size();
    stats_.spill_bytes += bytes;
    SweepMetrics& m = sweep_metrics();
    m.spilled_pairs.inc(bucket.resident.size());
    m.spill_bytes.inc(bytes);
    resident_bytes_ -= bytes;
    release(bucket.resident);
  }

  fs::path spill_path(std::size_t overlap) {
    if (spill_dir_.empty()) {
      static std::atomic<std::uint64_t> run_counter{0};
      const fs::path base = options_.spill_dir.empty()
                                ? fs::temp_directory_path()
                                : fs::path(options_.spill_dir);
      const fs::path dir =
          base / ("kcc-sweep-" + std::to_string(::getpid()) + "-" +
                  std::to_string(run_counter.fetch_add(1)));
      std::error_code ec;
      fs::create_directory(dir, ec);
      require(!ec, caller_, ": cannot create spill directory ", dir.native(),
              ": ", ec.message());
      spill_dir_ = dir;  // only a directory this run created is removed
      KCC_LOG(kDebug) << caller_ << ": spilling to " << spill_dir_.string();
    }
    return spill_dir_ / ("overlap-" + std::to_string(overlap) + ".pairs");
  }

  std::vector<Bucket> buckets_;  // buckets_[o] = pairs with overlap o
  const CpmOptions& options_;
  const char* caller_;
  std::uint64_t resident_bytes_ = 0;
  fs::path spill_dir_;  // empty until the first spill
  SweepCpmStats stats_;
};

// The shared body of every entry point: validation, `fill` bucketing the
// overlap pairs (each pair (a, b, overlap) with overlap >= its min_overlap
// argument), then the descending-k loop.
template <typename Fill>
SweepCpmResult sweep(const Graph& g, std::vector<NodeSet> cliques,
                     const CpmOptions& options, const char* caller,
                     Fill&& fill) {
  cpm_detail::validate_cpm_input(options.min_k, cliques, caller);
  require(options.memory_budget == 0 ||
              options.memory_budget >= sweep_min_memory_budget(),
          caller, ": --memory-budget ", options.memory_budget,
          " is smaller than the spill chunk (", sweep_min_memory_budget(),
          " bytes); raise the budget or use 0 for unlimited");
  SweepCpmResult out;
  CpmResult& result = out.cpm;
  result.cliques = std::move(cliques);
  result.min_k = options.min_k;
  result.max_k =
      cpm_detail::resolve_max_k(options.min_k, options.max_k, result.cliques);
  if (result.max_k < result.min_k) return out;

  const std::size_t num_cliques = result.cliques.size();
  std::size_t max_size = 0;
  for (const auto& c : result.cliques) max_size = std::max(max_size, c.size());

  result.by_k.resize(result.max_k - result.min_k + 1);
  cpm_detail::DescendingLevelEmitter emitter(g, result);

  // ---- the k >= 3 descending sweep ----
  if (result.max_k >= 3) {
    // Level k consumes overlap k-1 and the lowest union level is
    // max(3, min_k), so smaller overlaps are never stored.
    const std::size_t lowest = std::max<std::size_t>(3, result.min_k);
    PairBuckets buckets(max_size, options, caller);
    {
      KCC_SPAN("sweep_cpm/clique_overlaps");
      fill(buckets, result.cliques, lowest - 1);
      buckets.finish_fill();
    }
    KCC_LOG(kDebug) << caller << ": " << num_cliques << " cliques, "
                    << buckets.stats().pairs << " overlap pairs, k in ["
                    << result.min_k << ", " << result.max_k << "]";

    std::vector<std::vector<CliqueId>> cliques_of_size(max_size + 1);
    for (CliqueId c = 0; c < num_cliques; ++c) {
      cliques_of_size[result.cliques[c].size()].push_back(c);
    }

    KCC_SPAN("sweep_cpm/sweep");
    UnionFind uf(num_cliques);
    std::vector<CliqueId> live;  // cliques of size >= current level
    std::uint64_t join_ops = 0;
    cpm_detail::SweepSnapshotter snapshotter(num_cliques);

    for (std::size_t k = max_size; k >= lowest; --k) {
      for (CliqueId c : cliques_of_size[k]) live.push_back(c);  // activate
      // Pairs with overlap k-1 become k-clique-adjacent at this level; both
      // endpoints have size >= overlap + 1 = k, so they are already live.
      join_ops += buckets.drain(k - 1, uf);
      if (k > result.max_k) continue;  // above the requested range

      // Snapshot: components over the live cliques are the communities at k.
      const obs::ScopedSpan span("sweep_cpm/emit_k=" + std::to_string(k));
      emitter.emit(snapshotter.snapshot(k, uf, live, result.cliques));
    }
    cpm_detail::note_join_ops(join_ops);
    out.stats = buckets.stats();
  }

  // ---- the k = 2 level: connected components ----
  if (result.min_k == 2) {
    KCC_SPAN("sweep_cpm/percolate_k2");
    emitter.emit_k2();
  }

  {
    KCC_SPAN("sweep_cpm/tree");
    out.tree = emitter.finish();
  }
  return out;
}

}  // namespace

std::uint64_t sweep_min_memory_budget() { return kSpillChunkBytes; }

std::uint64_t parse_memory_budget(const std::string& text) {
  require(!text.empty(), "parse_memory_budget: empty value");
  std::size_t digits = 0;
  while (digits < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[digits]))) {
    ++digits;
  }
  require(digits > 0, "parse_memory_budget: '", text,
          "' must start with a number (e.g. 512M)");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < digits; ++i) {
    const std::uint64_t next = value * 10 + (text[i] - '0');
    require(next >= value, "parse_memory_budget: '", text, "' overflows");
    value = next;
  }
  std::uint64_t multiplier = 1;
  if (digits < text.size()) {
    require(digits + 1 == text.size(),
            "parse_memory_budget: '", text,
            "' has trailing characters after the unit");
    switch (std::toupper(static_cast<unsigned char>(text[digits]))) {
      case 'K':
        multiplier = 1024ULL;
        break;
      case 'M':
        multiplier = 1024ULL * 1024;
        break;
      case 'G':
        multiplier = 1024ULL * 1024 * 1024;
        break;
      default:
        throw Error("parse_memory_budget: unknown unit '" +
                    std::string(1, text[digits]) + "' in '" + text +
                    "' (use K, M or G)");
    }
  }
  require(value <= ~0ULL / multiplier,
          "parse_memory_budget: '", text, "' overflows");
  return value * multiplier;
}

SweepCpmResult run_sweep_cpm_on_cliques(const Graph& g,
                                        std::vector<NodeSet> cliques,
                                        const CpmOptions& options) {
  return sweep(g, std::move(cliques), options, "run_sweep_cpm_on_cliques",
               [&](PairBuckets& buckets, const std::vector<NodeSet>& table,
                   std::size_t min_overlap) {
                 for_each_clique_overlaps(
                     table, g.num_nodes(), min_overlap,
                     [&](std::span<const CliqueOverlap> pairs) {
                       for (const CliqueOverlap& p : pairs) {
                         buckets.add(p.overlap, p.a, p.b);
                       }
                     });
               });
}

SweepCpmResult run_sweep_cpm_prejoined(const Graph& g,
                                       std::vector<NodeSet> cliques,
                                       std::vector<CliqueOverlap> overlaps,
                                       const CpmOptions& options) {
  return sweep(g, std::move(cliques), options, "run_sweep_cpm_prejoined",
               [&](PairBuckets& buckets, const std::vector<NodeSet>&,
                   std::size_t min_overlap) {
                 for (const CliqueOverlap& p : overlaps) {
                   if (p.overlap >= min_overlap) {
                     buckets.add(p.overlap, p.a, p.b);
                   }
                 }
                 overlaps.clear();
                 overlaps.shrink_to_fit();
               });
}

SweepCpmResult run_sweep_cpm(const Graph& g, const CpmOptions& options) {
  require(options.min_k >= 2, "run_sweep_cpm: min_k must be >= 2");
  ThreadPool pool(options.threads);
  clique::Options copt;
  copt.min_size = 2;
  std::vector<NodeSet> cliques = clique::Enumerator(g, copt).collect(pool);
  return run_sweep_cpm_on_cliques(g, std::move(cliques), options);
}

}  // namespace kcc
