#ifndef CSD_CORE_INCREMENTAL_CSD_H_
#define CSD_CORE_INCREMENTAL_CSD_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/city_semantic_diagram.h"
#include "core/popularity.h"
#include "poi/poi_database.h"
#include "traj/trajectory.h"

namespace csd {

/// Delta-aware CSD construction for one tile: absorbs stay-point
/// insertions (and popularity decay) without a full tile recluster.
///
/// The engine is built around the ε∪merge connectivity structure of the
/// tile's POI set, which streams never change (they add stays, never
/// POIs): two POIs are connected when one's ε_p-neighborhood or
/// merge-proximity list contains the other. Algorithm 1's greedy
/// expansion never crosses an ε-component boundary and merge edges never
/// cross a component of the union graph, so each connected component
/// clusters, purifies and merges independently of every other. A tick
/// therefore only re-runs the stages on the components a new stay
/// touched (anything within R₃σ of one) — the dirty components — and
/// splices the cached results of the clean components back in, in the
/// canonical order a from-scratch build would have produced
/// (clusters ascend by seed id, purified units are cluster-major blocks,
/// merge groups order by their smallest node; see unit_merging.h).
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
/// falls back to re-running every stage — still against the cached
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
  /// Canonical ordering key of a merge node, total across generations:
  /// purified-unit node (kind 0) = (owning cluster's seed id, block index
  /// inside the cluster); absorbed-singleton node (kind 1) = (POI id, 0).
  /// Matches the node numbering of a from-scratch build — clusters ascend
  /// by seed, blocks are cluster-major, singletons follow all units — so
  /// sorting cached and fresh groups by key reproduces the full build's
  /// unit order.
  static uint64_t NodeKey(bool unclustered, uint32_t a, uint32_t b);

  struct ClusterState {
    std::vector<PoiId> members;              // clustering order, seed first
    std::vector<std::vector<PoiId>> blocks;  // purified units, FIFO order
  };
  struct GroupState {
    std::vector<uint64_t> keys;  // ascending; front() is the root
    uint32_t component = 0;
  };

  void BuildConnectivity(const PoiDatabase& pois);
  /// Runs clustering → purification → merging on `active` (empty = every
  /// POI), replacing the cached state of the covered components.
  void RunStages(const PoiDatabase& pois, std::vector<char> active);
  CitySemanticDiagram Materialize(const PoiDatabase& pois) const;

  Options options_;
  uint64_t generations_ = 0;

  // Fixed per POI set, built on the first Apply and whenever the POI
  // records change.
  std::vector<Poi> applied_pois_;
  std::vector<uint32_t> eps_offsets_;
  std::vector<PoiId> eps_flat_;
  std::vector<uint32_t> merge_offsets_;
  std::vector<PoiId> merge_flat_;
  std::vector<uint32_t> component_of_;
  std::vector<uint32_t> component_size_;

  // Regenerated or spliced every Apply. Unclustered POIs need no list of
  // their own: each lives on as a singleton group (kind-1 key), which is
  // exactly how the POI-level merging wrapper sees them.
  std::optional<PopularityModel> popularity_;
  std::vector<StayPoint> applied_stays_;
  std::map<uint32_t, ClusterState> clusters_;  // keyed by seed POI id
  std::vector<GroupState> groups_;             // ascending by front key
};

}  // namespace csd

#endif  // CSD_CORE_INCREMENTAL_CSD_H_
