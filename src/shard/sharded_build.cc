#include "shard/sharded_build.h"

#include <algorithm>

#include "core/popularity.h"
#include "index/grid_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace csd::shard {

double RequiredHalo(const CsdBuildOptions& options) {
  double r = std::max({options.r3sigma, options.clustering.eps,
                       options.merging.neighbor_distance});
  return r + 1.0;
}

ShardPlan PlanForCity(const PoiDatabase& pois, size_t num_shards,
                      const CsdBuildOptions& options) {
  return ShardPlan::MakeSquarish(pois.Bounds(), num_shards,
                                 RequiredHalo(options));
}

namespace {

/// Stage-query results of one tile, for the POIs it owns (in ascending
/// global id order). Offsets are per-owned-POI CSR over the local flats.
struct TileCache {
  std::vector<PoiId> owned;
  std::vector<double> pop;
  std::vector<uint32_t> eps_off{0};
  std::vector<PoiId> eps_flat;
  std::vector<uint32_t> merge_off{0};
  std::vector<PoiId> merge_flat;
  size_t halo_pois = 0;
};

}  // namespace

CsdStageCaches BuildStageCaches(const PoiDatabase& pois,
                                const std::vector<StayPoint>& stays,
                                const ShardPlan& plan,
                                const CsdBuildOptions& options) {
  CSD_TRACE_SPAN("shard/stage_caches");
  CSD_CHECK_MSG(plan.halo() >= RequiredHalo(options) - 1e-9,
                "shard plan halo smaller than the largest stage radius");
  size_t n = pois.size();
  size_t num_shards = plan.num_shards();

  // Tile ownership is a pure function of the POI position; compute it
  // once so every tile's gather pass is a flat scan.
  std::vector<uint32_t> owner(n);
  ParallelFor(
      n,
      [&](size_t pid) {
        owner[pid] = static_cast<uint32_t>(
            plan.ShardOf(pois.poi(static_cast<PoiId>(pid)).position));
      },
      {.grain = 1024});

  double eps = options.clustering.eps;
  double neighbor = options.merging.neighbor_distance;
  double r3sigma = options.r3sigma;

  // Decay instant resolved once against the FULL stay set, before tiling:
  // a per-tile "newest stay" would give every tile its own clock and the
  // stitched field would no longer match a monolithic build.
  PopularityDecayOptions decay = options.decay;
  if (decay.enabled() && decay.as_of == 0) {
    decay.as_of = ResolveDecayAsOf(stays);
  }

  std::vector<TileCache> tiles(num_shards);
  ParallelFor(
      num_shards,
      [&](size_t s) {
        TileCache& tc = tiles[s];
        BoundingBox halo = plan.HaloBounds(s);

        // Order-preserving halo subsets: ascending global id for POIs,
        // input order for stay points. Relative order is what makes the
        // tile grids enumerate the city-wide in-radius sequences.
        std::vector<Vec2> halo_positions;
        std::vector<PoiId> halo_ids;
        for (size_t pid = 0; pid < n; ++pid) {
          const Vec2& pos = pois.poi(static_cast<PoiId>(pid)).position;
          if (halo.Contains(pos)) {
            halo_positions.push_back(pos);
            halo_ids.push_back(static_cast<PoiId>(pid));
          }
          if (owner[pid] == s) tc.owned.push_back(static_cast<PoiId>(pid));
        }
        tc.halo_pois = halo_ids.size();
        GridIndex tile_grid(std::move(halo_positions),
                            pois.grid().cell_size());

        std::vector<Vec2> stay_positions;
        std::vector<double> stay_weight;
        for (const StayPoint& sp : stays) {
          if (halo.Contains(sp.position)) {
            stay_positions.push_back(sp.position);
            if (decay.enabled()) {
              stay_weight.push_back(
                  DecayWeight(sp.time, decay.as_of, decay.half_life_s));
            }
          }
        }
        GridIndex stay_grid(std::move(stay_positions), r3sigma);

        tc.pop.reserve(tc.owned.size());
        tc.eps_off.reserve(tc.owned.size() + 1);
        tc.merge_off.reserve(tc.owned.size() + 1);
        for (PoiId pid : tc.owned) {
          const Vec2& p = pois.poi(pid).position;
          // Equation (3) against the tile's stay subset, in the exact
          // enumeration (= summation) order of the monolithic model.
          double acc = 0.0;
          if (stay_weight.empty()) {
            stay_grid.ForEachInRadius(p, r3sigma, [&](size_t sidx) {
              acc += GaussianCoefficient(Distance(p, stay_grid.point(sidx)),
                                         r3sigma);
            });
          } else {
            stay_grid.ForEachInRadius(p, r3sigma, [&](size_t sidx) {
              acc += stay_weight[sidx] *
                     GaussianCoefficient(Distance(p, stay_grid.point(sidx)),
                                         r3sigma);
            });
          }
          tc.pop.push_back(acc);

          tile_grid.ForEachInRadius(p, eps, [&](size_t idx) {
            tc.eps_flat.push_back(halo_ids[idx]);
          });
          tc.eps_off.push_back(CheckedOffset32(tc.eps_flat.size()));

          tile_grid.ForEachInRadius(p, neighbor, [&](size_t idx) {
            PoiId other = halo_ids[idx];
            if (other > pid) tc.merge_flat.push_back(other);
          });
          tc.merge_off.push_back(CheckedOffset32(tc.merge_flat.size()));
        }
      },
      {.grain = 1});

  // Stitch the per-tile results into the global CSR caches. Tiles own
  // disjoint, non-contiguous id sets, so size each POI's slice from its
  // tile list, prefix-sum, then copy slices into place.
  CsdStageCaches caches;
  caches.popularity.assign(n, 0.0);
  caches.eps_offsets.assign(n + 1, 0);
  caches.merge_offsets.assign(n + 1, 0);
  size_t halo_total = 0;
  for (const TileCache& tc : tiles) {
    halo_total += tc.halo_pois;
    for (size_t i = 0; i < tc.owned.size(); ++i) {
      PoiId pid = tc.owned[i];
      caches.popularity[pid] = tc.pop[i];
      caches.eps_offsets[pid + 1] = tc.eps_off[i + 1] - tc.eps_off[i];
      caches.merge_offsets[pid + 1] = tc.merge_off[i + 1] - tc.merge_off[i];
    }
  }
  size_t eps_total = 0;
  size_t merge_total = 0;
  for (size_t pid = 0; pid < n; ++pid) {
    eps_total += caches.eps_offsets[pid + 1];
    merge_total += caches.merge_offsets[pid + 1];
    caches.eps_offsets[pid + 1] = CheckedOffset32(eps_total);
    caches.merge_offsets[pid + 1] = CheckedOffset32(merge_total);
  }
  caches.eps_flat.resize(eps_total);
  caches.merge_flat.resize(merge_total);
  ParallelFor(
      num_shards,
      [&](size_t s) {
        const TileCache& tc = tiles[s];
        for (size_t i = 0; i < tc.owned.size(); ++i) {
          PoiId pid = tc.owned[i];
          std::copy(tc.eps_flat.begin() + tc.eps_off[i],
                    tc.eps_flat.begin() + tc.eps_off[i + 1],
                    caches.eps_flat.begin() + caches.eps_offsets[pid]);
          std::copy(tc.merge_flat.begin() + tc.merge_off[i],
                    tc.merge_flat.begin() + tc.merge_off[i + 1],
                    caches.merge_flat.begin() + caches.merge_offsets[pid]);
        }
      },
      {.grain = 1});

  static obs::Counter& builds_counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_shard_builds_total", "Sharded CSD stage-cache builds");
  static obs::Counter& tiles_counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_shard_tiles_total", "Tiles processed by sharded CSD builds");
  static obs::Counter& halo_counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_shard_halo_pois_total",
      "POIs inside tile halo bounds (owned + replicated margin)");
  builds_counter.Increment(1);
  tiles_counter.Increment(num_shards);
  halo_counter.Increment(halo_total);
  return caches;
}

CitySemanticDiagram ShardedCsdBuild(const PoiDatabase& pois,
                                    const std::vector<StayPoint>& stays,
                                    const ShardPlan& plan,
                                    const CsdBuildOptions& options) {
  CSD_TRACE_SPAN("shard/csd_build");
  CsdStageCaches caches = BuildStageCaches(pois, stays, plan, options);
  return CsdBuilder(options).Build(pois, stays, &caches);
}

}  // namespace csd::shard
