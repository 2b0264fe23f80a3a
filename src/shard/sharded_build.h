#ifndef CSD_SHARD_SHARDED_BUILD_H_
#define CSD_SHARD_SHARDED_BUILD_H_

#include <vector>

#include "core/city_semantic_diagram.h"
#include "shard/shard_plan.h"
#include "traj/trajectory.h"

namespace csd::shard {

/// Halo margin (meters) a shard plan needs so that every range query the
/// CSD construction stages issue from inside a tile — popularity (R₃σ),
/// ε_p-clustering, and unit-merging proximity — is fully answerable from
/// the points inside the tile's halo bounds. Includes a one-meter slack
/// over the largest stage radius to stay clear of floating-point edge
/// cases at the halo boundary.
double RequiredHalo(const CsdBuildOptions& options);

/// A shard plan over the city's POI bounding box sized for `options`'
/// stage radii: `num_shards` tiles in the most square kx × ky grid.
ShardPlan PlanForCity(const PoiDatabase& pois, size_t num_shards,
                      const CsdBuildOptions& options);

/// The tiled front half of a sharded CSD build: computes the per-POI
/// popularity values and the ε/proximity neighbor lists tile by tile, one
/// tile per pool task. Each tile builds private grid indexes over the
/// POIs and stay points inside its halo bounds and answers the stage
/// queries of the POIs it owns.
///
/// Because grid cell keys are absolute functions of coordinates and the
/// tile subsets preserve global id order, a tile grid enumerates exactly
/// the in-radius sequence the city-wide grid would (same cell size, halo
/// ≥ query radius) — so the caches, and therefore the diagram replayed
/// from them, are byte-identical to a monolithic build (docs/sharding.md).
CsdStageCaches BuildStageCaches(const PoiDatabase& pois,
                                const std::vector<StayPoint>& stays,
                                const ShardPlan& plan,
                                const CsdBuildOptions& options);

/// Full sharded build: per-tile stage caches, then CsdBuilder::Build with
/// the caches injected, which runs the decision stages component by
/// component on every lane (core/component_stages.h). The plan's halo
/// must be at least RequiredHalo(options).
CitySemanticDiagram ShardedCsdBuild(const PoiDatabase& pois,
                                    const std::vector<StayPoint>& stays,
                                    const ShardPlan& plan,
                                    const CsdBuildOptions& options);

}  // namespace csd::shard

#endif  // CSD_SHARD_SHARDED_BUILD_H_
