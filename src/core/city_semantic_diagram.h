#ifndef CSD_CORE_CITY_SEMANTIC_DIAGRAM_H_
#define CSD_CORE_CITY_SEMANTIC_DIAGRAM_H_

#include <vector>

#include "core/popularity.h"
#include "core/popularity_clustering.h"
#include "core/purification.h"
#include "core/semantic_unit.h"
#include "core/unit_merging.h"
#include "traj/trajectory.h"

namespace csd {

/// All knobs of the Semantic Diagram Constructor (Section 4.1), with the
/// paper's tuned defaults.
struct CsdBuildOptions {
  /// R₃σ of the popularity model and the recognition range (paper: 100 m).
  double r3sigma = 100.0;

  PopularityClusteringOptions clustering;
  PurificationOptions purification;
  MergingOptions merging;

  /// Time decay of the popularity evidence (off by default — Eq. 3 exactly
  /// as published). An unset as_of resolves to the newest stay time once,
  /// at the top of Build, so every tile of a sharded build shares it.
  PopularityDecayOptions decay;

  /// Ablation switches (bench/ablation_csd_steps): disable individual
  /// construction stages to measure their contribution.
  bool enable_purification = true;
  bool enable_merging = true;
};

/// The City Semantic Diagram (Definition 4): the set of fine-grained
/// semantic units of a city, together with the POI→unit mapping
/// (FindSemanticUnit of Algorithm 3) and the POI popularity values.
///
/// The CSD does not own the PoiDatabase; callers keep it alive.
class CitySemanticDiagram {
 public:
  CitySemanticDiagram(const PoiDatabase* pois,
                      std::vector<SemanticUnit> units,
                      std::vector<double> popularity);

  const std::vector<SemanticUnit>& units() const { return units_; }
  const SemanticUnit& unit(UnitId id) const { return units_[id]; }
  size_t num_units() const { return units_.size(); }

  /// Unit a POI belongs to, or kNoUnit for POIs outside every unit
  /// (Algorithm 3's FindSemanticUnit).
  UnitId UnitOfPoi(PoiId poi) const { return poi_to_unit_[poi]; }

  /// pop(p^I) of Equation (3).
  double Popularity(PoiId poi) const { return popularity_[poi]; }

  /// The full per-POI popularity vector (serialization).
  const std::vector<double>& popularities() const { return popularity_; }

  const PoiDatabase& pois() const { return *pois_; }

  /// Fraction of POIs covered by some unit.
  double CoverageRatio() const;

  /// Mean share of the dominant category per unit (1.0 = every unit is
  /// single-semantic) — the purity statistic reported by the F6 bench.
  double MeanUnitPurity() const;

 private:
  const PoiDatabase* pois_;
  std::vector<SemanticUnit> units_;
  std::vector<UnitId> poi_to_unit_;
  std::vector<double> popularity_;
};

/// Precomputed inputs of the expensive, spatially local construction
/// stages, in CSR layout. A sharded build (shard/sharded_build.h) fills
/// one of these per-tile in parallel — every entry a pure function of the
/// tile plus its halo — and then runs the component stage runner
/// (core/component_stages.h) against it, producing a diagram
/// byte-identical to a monolithic build.
struct CsdStageCaches {
  /// pop(p^I) of Equation (3), per POI.
  std::vector<double> popularity;

  /// ε_p-neighborhood of each POI (everything ForEachInRange yields at
  /// clustering.eps, in enumeration order, including the POI itself).
  std::vector<uint32_t> eps_offsets;
  std::vector<PoiId> eps_flat;

  /// Proximity lists for unit merging: every `other > pid` within
  /// merging.neighbor_distance, in enumeration order.
  std::vector<uint32_t> merge_offsets;
  std::vector<PoiId> merge_flat;
};

/// Orchestrates the three construction steps of Section 4.1:
/// popularity-based clustering → semantic purification → unit merging.
/// Every build takes one path: the ε and merge CSRs (injected or built
/// here), their component index, then the component stage runner
/// (core/component_stages.h), whose output equals one serial pass of the
/// stage functions over the whole city, byte for byte.
class CsdBuilder {
 public:
  explicit CsdBuilder(CsdBuildOptions options = {});

  /// Builds the CSD of `pois` using `stays` (all pick-up/drop-off points)
  /// as the popularity evidence. `pois` must outlive the returned diagram.
  /// When `caches` is non-null the popularity values and neighbor lists
  /// are taken from it instead of being recomputed (`stays` is then
  /// unused); the output is byte-identical either way.
  CitySemanticDiagram Build(const PoiDatabase& pois,
                            const std::vector<StayPoint>& stays,
                            const CsdStageCaches* caches = nullptr) const;

  const CsdBuildOptions& options() const { return options_; }

 private:
  CsdBuildOptions options_;
};

}  // namespace csd

#endif  // CSD_CORE_CITY_SEMANTIC_DIAGRAM_H_
