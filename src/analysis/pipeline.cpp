#include "analysis/pipeline.h"

#include "common/error.h"
#include "common/timer.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace kcc {

const CommunityMetrics& PipelineResult::metrics_of(std::size_t k,
                                                   CommunityId id) const {
  require(cpm.has_k(k), "PipelineResult::metrics_of: k out of range");
  const auto& level = metrics_by_k[k - cpm.min_k];
  require(id < level.size(), "PipelineResult::metrics_of: id out of range");
  return level[id];
}

PipelineResult analyze_ecosystem(AsEcosystem eco, const cpm::Options& cpm_opts) {
  KCC_SPAN("pipeline/analyze");
  Timer stage_timer;  // lap() per stage keeps one timer across the sequence
  PipelineResult result;
  result.eco = std::move(eco);
  {
    KCC_SPAN("pipeline/cpm");
    // Every tree-building engine returns the nesting tree with the
    // communities (cpm::Result::tree).
    cpm::Result engine_result =
        cpm::Engine(cpm_opts).run(result.eco.topology.graph);
    result.cpm = std::move(engine_result.cpm);
    require(result.cpm.max_k >= result.cpm.min_k,
            "analyze_ecosystem: the graph has no cliques to percolate");
    require(engine_result.has_tree,
            "analyze_ecosystem: the engine produced no community tree");
    result.tree = std::move(engine_result.tree);
    result.level_stats = tree_level_stats(result.tree);
  }
  KCC_LOG(kInfo) << "pipeline: cpm+tree ("
                 << cpm_opts.engine << " engine) done in "
                 << stage_timer.lap() << "s ("
                 << result.cpm.cliques.size() << " cliques, k in ["
                 << result.cpm.min_k << ", " << result.cpm.max_k << "], "
                 << result.tree.nodes().size() << " communities)";
  {
    KCC_SPAN("pipeline/metrics");
    result.metrics_by_k.reserve(result.cpm.by_k.size());
    for (const CommunitySet& set : result.cpm.by_k) {
      result.metrics_by_k.push_back(
          compute_metrics(result.eco.topology.graph, set));
    }
  }
  KCC_LOG(kInfo) << "pipeline: metrics done in " << stage_timer.lap() << "s";
  {
    KCC_SPAN("pipeline/profiles");
    result.profiles = profile_communities(result.cpm, result.tree,
                                          result.eco.ixps, result.eco.geo);
  }
  {
    KCC_SPAN("pipeline/bands");
    result.bands = derive_bands(result.profiles, result.cpm.min_k,
                                result.cpm.max_k);
  }
  {
    KCC_SPAN("pipeline/overlaps");
    result.overlaps =
        overlap_stats(result.cpm, main_ids_by_k(result.tree));
  }
  KCC_LOG(kInfo) << "pipeline: tagging/overlaps done in " << stage_timer.lap()
                 << "s";
  return result;
}

PipelineResult run_pipeline(const PipelineOptions& options) {
  AsEcosystem eco;
  {
    KCC_SPAN("pipeline/generate");
    eco = generate_ecosystem(options.synth);
  }
  return analyze_ecosystem(std::move(eco), options.cpm);
}

}  // namespace kcc
