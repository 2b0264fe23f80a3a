#ifndef CSD_CORE_POPULARITY_CLUSTERING_H_
#define CSD_CORE_POPULARITY_CLUSTERING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/popularity.h"
#include "core/stage_graph.h"
#include "poi/poi_database.h"

namespace csd {

/// Parameters of Algorithm 1, with the paper's tuned defaults
/// (Section 4.1: R₃σ=100 m, d_v=15 m, MinPts_p=5, ε_p=30 m, α=0.8).
struct PopularityClusteringOptions {
  /// MinPts_p: clusters smaller than this are discarded (their POIs stay
  /// unclustered and are reconsidered during unit merging).
  size_t min_pts = 5;

  /// ε_p: range-search radius used to grow a cluster.
  double eps = 30.0;

  /// d_v: the vertical-overlap distance — POIs this close belong to the
  /// same (multi-purpose) building regardless of category.
  double vertical_overlap = 15.0;

  /// α: mutual popularity-ratio lower bound (line 5 of Algorithm 1).
  double alpha = 0.8;

  /// The pseudocode tests every candidate against the cluster seed
  /// (lines 5-6 use p^I, the seed). Setting this to false tests against
  /// the member whose range search discovered the candidate instead.
  bool compare_to_seed = true;
};

/// Output of Algorithm 1: coarse semantic clusters plus the POIs no
/// cluster absorbed (e.g. p16 in the paper's Figure 3).
struct PopularityClusteringResult {
  std::vector<std::vector<PoiId>> clusters;
  std::vector<PoiId> unclustered;
};

/// Algorithm 1 — Popularity Based Clustering: a DBSCAN-like expansion that
/// groups nearby POIs with mutually similar popularity and either the same
/// semantic category or near-identical location (skyscraper case).
///
/// `eps_offsets`/`eps_flat` optionally inject a precomputed ε-neighbor
/// cache in CSR layout (offsets has pois.size() + 1 entries; each POI's
/// list is everything `pois.ForEachInRange(position, eps)` yields, in
/// enumeration order, including the POI itself). When empty the cache is
/// built internally (BuildEpsCsr, core/stage_graph.h).
PopularityClusteringResult PopularityBasedClustering(
    const PoiDatabase& pois, const PopularityModel& popularity,
    const PopularityClusteringOptions& options,
    std::span<const uint32_t> eps_offsets = {},
    std::span<const PoiId> eps_flat = {});

/// Algorithm 1 over one ε-closed POI set (StageDomain): seeds run in
/// domain order, kept clusters are appended to `out.clusters` and the
/// domain's unclustered POIs, in domain order, to `out.unclustered`. Work
/// and per-thread scratch are proportional to the domain. Greedy
/// expansion never crosses an ε-component boundary, so a run over whole
/// components of the ε∪merge graph yields exactly the city-wide run's
/// output restricted to them — which is what the component stage runner
/// (core/component_stages.h) relies on.
void PopularityBasedClusteringOn(const PoiDatabase& pois,
                                 const PopularityModel& popularity,
                                 const PopularityClusteringOptions& options,
                                 std::span<const uint32_t> eps_offsets,
                                 std::span<const PoiId> eps_flat,
                                 const StageDomain& domain,
                                 PopularityClusteringResult& out);

}  // namespace csd

#endif  // CSD_CORE_POPULARITY_CLUSTERING_H_
