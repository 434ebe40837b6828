// Similarity comparison between two cpm::Results.
//
// The exact engines are held to byte-identical output, so canonical_digest
// equality is the gate between them. The almost_exact engine (and any
// future approximate backend) cannot meet that bar by design; its contract
// is a *bounded* gap instead. compare_results scores that gap per k with
// the community-matching machinery from metrics/similarity.h:
//
//   recall    = mean best-match Jaccard, baseline -> candidate
//   precision = mean best-match Jaccard, candidate -> baseline
//   F1        = harmonic mean of the two
//
// and reports the worst level. check::differential fails approximate
// engines whose worst F1 drops below the threshold, kcc_fuzz inherits that
// gate, and bench/perf_cpm.cpp records the per-k curves in
// BENCH_cpm_almost.json.
// The comparison also feeds the cpm_gap_* metrics (docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cpm/engine.h"

namespace kcc::cpm {

struct CompareOptions {
  /// Comparison passes (Comparison::ok) iff every level's F1 reaches this.
  double min_f1 = 0.99;
  /// Export cpm_gap_* metrics for the comparison.
  bool publish_metrics = true;
};

/// Gap between two results at one k.
struct LevelGap {
  std::size_t k = 0;
  std::size_t communities_baseline = 0;
  std::size_t communities_candidate = 0;
  double recall = 1.0;     // mean best-match Jaccard, baseline -> candidate
  double precision = 1.0;  // mean best-match Jaccard, candidate -> baseline
  double f1 = 1.0;         // harmonic mean of recall and precision
};

struct Comparison {
  /// Node-set projections are byte-identical (F1 is exactly 1 everywhere).
  bool identical = false;
  /// k ranges match and every level's F1 >= CompareOptions::min_f1.
  bool ok = false;
  double worst_f1 = 1.0;
  std::size_t worst_k = 0;  // level attaining worst_f1 (0 when no levels)
  std::vector<LevelGap> levels;
  /// One-line human-readable verdict, e.g. for differential failure text.
  std::string summary;
};

/// Scores `candidate` against `baseline` per k. Use whenever either side is
/// approximate (Result::exactness != kExact); exact-vs-exact callers should
/// keep using canonical_digest equality, which this does not replace.
Comparison compare_results(const Result& baseline, const Result& candidate,
                           const CompareOptions& options = {});

}  // namespace kcc::cpm
