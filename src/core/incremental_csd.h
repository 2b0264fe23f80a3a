#ifndef CSD_CORE_INCREMENTAL_CSD_H_
#define CSD_CORE_INCREMENTAL_CSD_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/city_semantic_diagram.h"
#include "core/component_stages.h"
#include "core/popularity.h"
#include "poi/poi_database.h"
#include "traj/trajectory.h"

namespace csd {

/// Delta-aware CSD construction for one tile: absorbs stay-point
/// insertions (and popularity decay) without a full tile recluster.
///
/// The engine keeps the tile's ε/merge CSRs and their component index
/// (core/component_stages.h), which streams never change (they add stays,
/// never POIs). Each component of the ε∪merge graph clusters, purifies
/// and merges independently of every other, so a tick re-runs only the
/// components a new stay touched (anything within R₃σ of one) — the dirty
/// components — through the same component stage runner a from-scratch
/// CsdBuilder::Build uses, and splices the cached units of the clean
/// components back in by key, the canonical order a from-scratch build
/// produces.
///
/// Exactness: with decay off, a clean component's POIs see the same stay
/// multiset in the same grid-enumeration order (the old canonical stay
/// list is a subsequence of the new one and the Gaussian query yields no
/// new stay), so their popularity values are bit-identical and every
/// cached decision replays exactly — Apply() equals a full recluster of
/// the same generation, byte for byte. With decay on, all of a clean
/// component's stay weights scale by one common factor 2^-(Δt/H); the
/// clustering ratio tests and merging cosines are scale-invariant in
/// exact arithmetic, so cached structure remains valid up to floating-
/// point rounding of ratios that sit within an ulp of their thresholds —
/// the bounded divergence documented in docs/streaming.md.
///
/// Past `churn_threshold` (fraction of tile POIs in dirty components)
/// the incremental bookkeeping stops paying for itself and the engine
/// falls back to re-running every component — still against the cached
/// ε/merge CSRs, so even the fallback skips all POI-POI range queries.
///
/// Not thread-safe: each per-shard rebuild lane of serve::ServeService
/// owns one engine and is its only caller.
class IncrementalTileCsd {
 public:
  struct Options {
    CsdBuildOptions build;
    /// Dirty-POI fraction above which Apply re-runs all stages.
    double churn_threshold = 0.25;
  };

  /// What one Apply() did, for metrics and the equivalence harness.
  struct TickStats {
    /// False on the first build and on churn-threshold fallbacks.
    bool incremental = false;
    size_t new_stays = 0;
    size_t dirty_components = 0;
    size_t dirty_pois = 0;
    /// dirty_pois / tile POIs (1.0 on a full build).
    double churn = 0.0;
  };

  explicit IncrementalTileCsd(Options options);

  /// Absorbs one tile-local generation and returns its diagram, built
  /// over `pois` (which must outlive the returned diagram). Incremental
  /// absorbs need the same POIs in the same order as the previous call,
  /// and `stays` a supersequence of the previously applied generation's
  /// stays (the canonical stream order guarantees it —
  /// delta_accumulator.h). If either does not hold, the engine heals
  /// itself with a full rebuild instead of trusting stale state.
  /// `decay_as_of` pins the decay instant (0 = newest stay, resolved
  /// here, tile-locally — pass the generation's city-wide watermark to
  /// match a city-wide build).
  CitySemanticDiagram Apply(const PoiDatabase& pois,
                            const std::vector<StayPoint>& stays,
                            Timestamp decay_as_of = 0,
                            TickStats* stats = nullptr);

  const Options& options() const { return options_; }
  /// Generations applied so far (1 after the first Apply).
  uint64_t generations() const { return generations_; }

 private:
  void BuildConnectivity(const PoiDatabase& pois);
  StageGraph graph() const {
    return StageGraph{eps_offsets_, eps_flat_, merge_offsets_, merge_flat_};
  }

  Options options_;
  uint64_t generations_ = 0;

  // Fixed per POI set, built on the first Apply and whenever the POI
  // records change.
  std::vector<Poi> applied_pois_;
  std::vector<uint32_t> eps_offsets_;
  std::vector<PoiId> eps_flat_;
  std::vector<uint32_t> merge_offsets_;
  std::vector<PoiId> merge_flat_;
  ComponentIndex components_;

  // Regenerated or spliced every Apply.
  std::optional<PopularityModel> popularity_;
  std::vector<StayPoint> applied_stays_;
  std::vector<StagedUnit> units_;  // ascending by key
};

}  // namespace csd

#endif  // CSD_CORE_INCREMENTAL_CSD_H_
