// Temporal extension: track k-clique communities across churned snapshots
// of the AS topology (AS birth, multi-homing changes, edge loss) and report
// the community lifecycle — survivals, births, deaths (in the spirit of
// Palla et al. 2007 and the AS-evolution work the paper cites as [22]).
//
//   ./community_evolution --steps=4 --k=4 --seed=42

#include <iostream>

#include "analysis/temporal.h"
#include "common/cli.h"
#include "common/table.h"
#include "synth/as_topology.h"

int main(int argc, char** argv) {
  using namespace kcc;
  try {
    const CliArgs args(argc, argv, {"steps", "k", "seed"});
    const auto steps = static_cast<std::size_t>(args.get_int("steps", 4));
    const auto k = static_cast<std::size_t>(args.get_int("k", 4));
    SynthParams params = SynthParams::test_scale();
    params.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

    const AsEcosystem eco = generate_ecosystem(params);
    std::cout << "Initial topology: " << eco.num_ases() << " ASes, "
              << eco.topology.graph.num_edges() << " edges\n";

    ChurnParams churn;  // defaults: 5% stub rewires, 2% edge loss per step
    const TemporalSummary summary = track_communities(
        eco.topology.graph, k, steps, churn, params.seed);

    TextTable counts({"snapshot", "communities at k=" + std::to_string(k)});
    for (std::size_t t = 0; t < summary.community_counts.size(); ++t) {
      // Appended piecewise: gcc 12 -Wrestrict misfires on "t" + std::string.
      std::string snapshot = "t";
      snapshot += std::to_string(t);
      counts.add(snapshot, summary.community_counts[t]);
    }
    std::cout << counts << "\n";

    TextTable events({"event", "count"});
    events.add("survivals", summary.survivals);
    events.add("births", summary.births);
    events.add("deaths", summary.deaths);
    std::cout << events;
    std::cout << "\nMean Jaccard similarity of surviving communities: "
              << fixed(summary.mean_survivor_jaccard, 3) << "\n";
    std::cout << "(stable cores persist across churn; small root "
                 "communities are volatile)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
