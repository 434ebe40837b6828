// kcc_fuzz — differential fuzzer for the CPM engines (src/check/).
//
// Generates a deterministic corpus of graphs (fixed degenerate shapes, then
// seeded Erdős–Rényi / planted-clique / preferential-attachment / clique
// chains / mini AS ecosystems with mutations), runs every engine × option
// combination on each (check::run_differential), validates the baseline with
// the first-principles invariant oracles, and — on the first failure —
// delta-debugs the graph down to a minimal edge-list reproducer written
// under --artifact-dir.
//
// --schedules adds the churn axis (check::run_churn_differential): seeded
// graphs driven through randomized edge-batch schedules, the incremental
// engine diffed against a from-scratch sweep after every batch. A churn
// failure is captured as a .delta stream (initial graph + batches,
// truncated to the failing batch) instead of a shrunken edge list; corpus
// replay picks up committed *.delta reproducers next to the *.txt ones.
//
//   kcc_fuzz --seed=7 --iters=60                 # deterministic smoke
//   kcc_fuzz --iters=0 --schedules=12            # churn smoke
//   kcc_fuzz --corpus-dir=tests/corpus --iters=0 # replay committed repros
//   KCC_CHECK_INJECT_FAULT=community kcc_fuzz --iters=4 --expect-fault
//       --expect-repro=tests/corpus/inject_community_minimal.txt  (one line)
//
// The --expect-fault mode inverts the verdict: the run must *detect* the
// injected corruption and shrink it (self-test against a vacuously-green
// harness); --expect-repro additionally pins the shrunken artifact (or the
// .delta stream, for churn failures) to a committed minimal reproducer.
// docs/TESTING.md covers the workflow.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/churn.h"
#include "check/differential.h"
#include "check/generators.h"
#include "check/shrink.h"
#include "common/cli.h"
#include "common/error.h"
#include "io/edge_list.h"
#include "obs/obs.h"

namespace {

using namespace kcc;

int usage(std::ostream& out, int rc) {
  out <<
      "usage: kcc_fuzz [--seed=N] [--iters=N] [--schedules=N] [--threads=N]\n"
      "                [--corpus-dir=DIR] [--artifact-dir=DIR]\n"
      "                [--no-restricted-range] [--max-shrink-evals=N]\n"
      "                [--expect-fault] [--expect-repro=FILE]\n"
      "                [--log-level=L] [--trace-out=F] [--metrics-out=F]\n"
      "                [--help]\n";
  return rc;
}

/// Edge lines of an edge-list text, comments/blank lines stripped and
/// whitespace normalized — the representation used to pin a shrunken
/// reproducer to a committed artifact.
std::vector<std::string> edge_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string token, normalized;
    while (tokens >> token) {
      if (!normalized.empty()) normalized += ' ';
      normalized += token;
    }
    if (!normalized.empty()) lines.push_back(std::move(normalized));
  }
  return lines;
}

check::TestGraph load_corpus_file(const std::filesystem::path& path) {
  const LabeledGraph loaded = read_edge_list_file(path.string());
  check::TestGraph g;
  g.name = "corpus:" + path.filename().string();
  g.num_nodes = loaded.graph.num_nodes();
  g.edges = loaded.graph.edges();
  return g;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in),
          "kcc_fuzz: cannot read ", path.native());
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

struct FailureRecord {
  check::TestGraph graph;
  std::string detail;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> known{
        "seed",         "iters",        "schedules",
        "threads",      "corpus-dir",   "artifact-dir",
        "no-restricted-range",          "expect-fault",
        "expect-repro", "max-shrink-evals",
        "log-level",    "trace-out",    "metrics-out",
        "help"};
    // CliArgs itself skips argv[0]; no subcommand to strip (unlike kcc).
    const CliArgs args(argc, argv, known);
    if (args.get_bool("help", false)) return usage(std::cout, 0);
    obs::ObsOptions obs_options;
    obs_options.log_level = args.get_string("log-level", "");
    obs_options.trace_out = args.get_string("trace-out", "");
    obs_options.metrics_out = args.get_string("metrics-out", "");
    obs::configure(obs_options);

    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    const auto iters = static_cast<std::size_t>(args.get_int("iters", 60));
    const auto schedules =
        static_cast<std::size_t>(args.get_int("schedules", 0));
    const std::string corpus_dir = args.get_string("corpus-dir", "");
    const std::string artifact_dir = args.get_string("artifact-dir", ".");
    const bool expect_fault = args.get_bool("expect-fault", false);
    const std::string expect_repro = args.get_string("expect-repro", "");
    const auto max_shrink_evals =
        static_cast<std::size_t>(args.get_int("max-shrink-evals", 10000));

    check::DiffOptions diff;
    diff.threads = static_cast<std::size_t>(args.get_int("threads", 4));
    diff.include_restricted_range =
        !args.get_bool("no-restricted-range", false);

    check::ChurnOptions churn;
    churn.threads = diff.threads;

    // The work list: committed corpus replays first, then the generated
    // stream. Both are fully determined by the flags. *.txt entries are
    // graph reproducers for the engine matrix; *.delta entries are churn
    // schedules replayed batch-for-batch.
    std::vector<check::TestGraph> corpus;
    std::vector<std::filesystem::path> delta_corpus;
    if (!corpus_dir.empty()) {
      std::vector<std::filesystem::path> files;
      for (const auto& entry :
           std::filesystem::directory_iterator(corpus_dir)) {
        if (!entry.is_regular_file()) continue;
        if (entry.path().extension() == ".txt") {
          files.push_back(entry.path());
        } else if (entry.path().extension() == ".delta") {
          delta_corpus.push_back(entry.path());
        }
      }
      std::sort(files.begin(), files.end());
      std::sort(delta_corpus.begin(), delta_corpus.end());
      for (const auto& path : files) corpus.push_back(load_corpus_file(path));
    }

    std::size_t graphs_run = 0;
    std::size_t variants_run = 0;
    std::size_t schedules_run = 0;
    std::size_t batches_run = 0;
    std::uint64_t invariants_checked = 0;
    std::size_t faults_injected = 0;
    double worst_approx_f1 = 1.0;
    std::optional<FailureRecord> first_failure;
    std::optional<check::ChurnOutcome> churn_failure;

    auto run_one = [&](const check::TestGraph& graph) {
      const check::DiffOutcome outcome = check::run_differential(graph, diff);
      ++graphs_run;
      variants_run += outcome.variants_run;
      invariants_checked += outcome.invariants_checked;
      worst_approx_f1 = std::min(worst_approx_f1, outcome.worst_approx_f1);
      if (outcome.fault_injected) ++faults_injected;
      if (!outcome.ok() && !first_failure) {
        first_failure = FailureRecord{graph, outcome.failure};
      }
      return !first_failure.has_value();
    };

    auto run_schedule = [&](const check::ChurnOutcome& outcome) {
      ++schedules_run;
      batches_run += outcome.batches_applied;
      invariants_checked += outcome.invariants_checked;
      if (outcome.fault_injected) ++faults_injected;
      if (!outcome.ok() && !churn_failure) churn_failure = outcome;
      return !churn_failure.has_value();
    };

    for (const check::TestGraph& graph : corpus) {
      if (!run_one(graph)) break;
    }
    if (!first_failure) {
      for (const auto& path : delta_corpus) {
        if (!run_schedule(check::replay_churn_delta(read_file(path), churn))) {
          break;
        }
      }
    }
    if (!first_failure && !churn_failure) {
      for (std::size_t i = 0; i < iters; ++i) {
        if (!run_one(check::generate_graph(seed, i))) break;
      }
    }
    if (!first_failure && !churn_failure) {
      for (std::size_t i = 0; i < schedules; ++i) {
        if (!run_schedule(check::run_churn_differential(seed, i, churn))) {
          break;
        }
      }
    }

    std::string artifact_path;
    bool repro_matches = true;
    if (first_failure) {
      std::cerr << "FAILURE on " << first_failure->graph.name << ":\n"
                << first_failure->detail << "\n";
      // Minimize: any differential/invariant failure counts as "still
      // failing" — classic ddmin, deterministic, no randomness.
      const check::ShrinkResult shrunk = check::shrink(
          first_failure->graph,
          [&](const check::TestGraph& candidate) {
            return !check::run_differential(candidate, diff).ok();
          },
          max_shrink_evals);
      obs::metrics()
          .counter("check_shrink_evals_total")
          .inc(shrunk.evaluations);
      std::filesystem::create_directories(artifact_dir);
      artifact_path =
          (std::filesystem::path(artifact_dir) /
           ("repro_seed" + std::to_string(seed) + ".txt"))
              .string();
      std::ofstream out(artifact_path);
      require(static_cast<bool>(out),
              "kcc_fuzz: cannot write artifact ", artifact_path);
      out << shrunk.graph.to_edge_list();
      out.close();
      std::cerr << "minimized to " << shrunk.graph.edges.size()
                << " edges (1-minimal: " << (shrunk.one_minimal ? "yes" : "no")
                << ", " << shrunk.evaluations << " evaluations) -> "
                << artifact_path << "\n";

      if (!expect_repro.empty()) {
        repro_matches = edge_lines(read_file(expect_repro)) ==
                        edge_lines(shrunk.graph.to_edge_list());
        if (!repro_matches) {
          std::cerr << "shrunken reproducer does not match " << expect_repro
                    << "\n";
        }
      }
    } else if (churn_failure) {
      std::cerr << "FAILURE on " << churn_failure->label << ":\n"
                << churn_failure->failure << "\n";
      // A churn failure is already minimal along the only axis that
      // matters for replay — the schedule is truncated to the failing
      // batch — so the delta stream is written as-is, no ddmin pass.
      std::filesystem::create_directories(artifact_dir);
      artifact_path =
          (std::filesystem::path(artifact_dir) /
           ("repro_churn_seed" + std::to_string(seed) + ".delta"))
              .string();
      std::ofstream out(artifact_path);
      require(static_cast<bool>(out),
              "kcc_fuzz: cannot write artifact ", artifact_path);
      out << churn_failure->repro;
      out.close();
      std::cerr << "delta-stream reproducer ("
                << churn_failure->batches_applied << " batches) -> "
                << artifact_path << "\n";
      if (!expect_repro.empty()) {
        repro_matches =
            edge_lines(read_file(expect_repro)) ==
            edge_lines(churn_failure->repro);
        if (!repro_matches) {
          std::cerr << "delta-stream reproducer does not match "
                    << expect_repro << "\n";
        }
      }
    }

    const bool failed = first_failure.has_value() || churn_failure.has_value();
    std::cout << "kcc_fuzz: " << graphs_run << " graphs, " << variants_run
              << " engine runs, " << schedules_run << " churn schedules, "
              << batches_run << " batches, " << invariants_checked
              << " invariants checked, " << faults_injected
              << " faults injected, worst approximate F1 " << worst_approx_f1
              << ", " << (failed ? 1 : 0) << " failures\n";
    obs::finish(obs_options);

    if (expect_fault) {
      // Self-test: the injected corruption must be caught and reproduced.
      if (!failed) {
        std::cerr << "expected an injected fault to be detected, but every "
                     "run came back clean\n";
        return 1;
      }
      if (faults_injected == 0) {
        std::cerr << "a failure was reported but no fault was injected\n";
        return 1;
      }
      return repro_matches ? 0 : 1;
    }
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
