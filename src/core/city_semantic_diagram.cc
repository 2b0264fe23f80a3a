#include "core/city_semantic_diagram.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "core/component_stages.h"
#include "obs/trace.h"
#include "util/check.h"

namespace csd {

CitySemanticDiagram::CitySemanticDiagram(const PoiDatabase* pois,
                                         std::vector<SemanticUnit> units,
                                         std::vector<double> popularity)
    : pois_(pois),
      units_(std::move(units)),
      popularity_(std::move(popularity)) {
  CSD_CHECK(pois_ != nullptr);
  CSD_CHECK(popularity_.size() == pois_->size());
  poi_to_unit_.assign(pois_->size(), kNoUnit);
  for (UnitId uid = 0; uid < units_.size(); ++uid) {
    units_[uid].id = uid;
    for (PoiId pid : units_[uid].pois) {
      CSD_CHECK_MSG(poi_to_unit_[pid] == kNoUnit,
                    "POI assigned to two semantic units");
      poi_to_unit_[pid] = uid;
    }
  }
}

double CitySemanticDiagram::CoverageRatio() const {
  if (pois_->size() == 0) return 0.0;
  size_t covered = 0;
  for (UnitId uid : poi_to_unit_) {
    if (uid != kNoUnit) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(pois_->size());
}

double CitySemanticDiagram::MeanUnitPurity() const {
  if (units_.empty()) return 0.0;
  double acc = 0.0;
  for (const SemanticUnit& u : units_) {
    std::array<size_t, kNumMajorCategories> counts{};
    for (PoiId pid : u.pois) {
      counts[static_cast<size_t>(pois_->poi(pid).major())]++;
    }
    size_t dominant = *std::max_element(counts.begin(), counts.end());
    acc += static_cast<double>(dominant) / static_cast<double>(u.size());
  }
  return acc / static_cast<double>(units_.size());
}

CsdBuilder::CsdBuilder(CsdBuildOptions options) : options_(options) {
  // Keep the shared R3sigma consistent across sub-steps unless the caller
  // overrode the sub-option explicitly.
  options_.purification.r3sigma = options_.r3sigma;
}

CitySemanticDiagram CsdBuilder::Build(const PoiDatabase& pois,
                                      const std::vector<StayPoint>& stays,
                                      const CsdStageCaches* caches) const {
  CSD_TRACE_SPAN("pipeline/csd_build");

  std::optional<PopularityModel> popularity_holder;
  {
    CSD_TRACE_SPAN("csd_build/popularity");
    if (caches != nullptr) {
      CSD_CHECK(caches->popularity.size() == pois.size());
      popularity_holder.emplace(caches->popularity, options_.r3sigma);
    } else {
      PopularityDecayOptions decay = options_.decay;
      if (decay.enabled() && decay.as_of == 0) {
        decay.as_of = ResolveDecayAsOf(stays);
      }
      popularity_holder.emplace(pois, stays, options_.r3sigma, decay);
    }
  }
  PopularityModel& popularity = *popularity_holder;

  // The stage graph and its component index. Injected caches are used as
  // they are. Otherwise the CSRs are built here through the shared
  // range-CSR builder, under the spans of the stages whose range queries
  // they are, and never held together (the 80k-POI mine-batch city has
  // 16M ε and 9M merge entries): the merge lists are built for the index
  // and dropped, the ε lists serve clustering and are dropped, and the
  // merge lists are built again for merging.
  std::vector<uint32_t> eps_offsets;
  std::vector<PoiId> eps_flat;
  std::vector<uint32_t> merge_offsets;
  std::vector<PoiId> merge_flat;
  StageGraph graph;
  auto build_eps = [&] {
    CSD_TRACE_SPAN("csd_build/popularity_clustering");
    BuildEpsCsr(pois, options_.clustering.eps, eps_offsets, eps_flat);
    graph.eps_offsets = eps_offsets;
    graph.eps_flat = eps_flat;
  };
  auto build_merge = [&] {
    CSD_TRACE_SPAN("csd_build/unit_merging");
    BuildMergeCsr(pois, options_.merging.neighbor_distance, merge_offsets,
                  merge_flat);
    graph.merge_offsets = merge_offsets;
    graph.merge_flat = merge_flat;
  };
  ComponentIndex index;
  std::function<void()> before_merging;
  if (caches != nullptr) {
    graph = StageGraph{caches->eps_offsets, caches->eps_flat,
                       caches->merge_offsets, caches->merge_flat};
    index = BuildComponentIndex(graph, options_);
  } else {
    const bool index_reads_eps =
        options_.clustering.eps > options_.merging.neighbor_distance;
    if (index_reads_eps) build_eps();
    build_merge();
    index = BuildComponentIndex(graph, options_);
    merge_offsets = std::vector<uint32_t>();
    merge_flat = std::vector<PoiId>();
    graph.merge_offsets = {};
    graph.merge_flat = {};
    if (!index_reads_eps) build_eps();
    before_merging = [&] {
      eps_offsets = std::vector<uint32_t>();
      eps_flat = std::vector<PoiId>();
      graph.eps_offsets = {};
      graph.eps_flat = {};
      build_merge();
    };
  }

  // Clustering → purification → merging (Section 4.1), component by
  // component on every lane, spliced into the serial pass's unit order.
  std::vector<uint32_t> components(index.size());
  for (uint32_t c = 0; c < components.size(); ++c) components[c] = c;
  std::vector<StagedUnit> units =
      RunComponentStages(pois, popularity, options_, graph, index,
                         components, before_merging);
  return AssembleDiagram(pois, popularity, std::move(units));
}

}  // namespace csd
