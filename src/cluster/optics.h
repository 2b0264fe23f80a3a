#ifndef CSD_CLUSTER_OPTICS_H_
#define CSD_CLUSTER_OPTICS_H_

#include <vector>

#include "cluster/clustering.h"
#include "geo/point.h"

namespace csd {

struct OpticsOptions {
  /// Upper bound on the examined neighborhood radius (the OPTICS ε).
  double max_eps = 500.0;

  /// MinPts for core-distance computation. Algorithm 4 passes the support
  /// threshold σ here ("cluster size threshold σ to mark all core points").
  /// Must be at least 1 (a point counts itself).
  size_t min_pts = 5;
};

/// Output of an OPTICS run: the cluster-ordering with per-point core and
/// reachability distances (Ankerst et al., SIGMOD'99). Distances that are
/// undefined are +infinity.
struct OpticsResult {
  /// Point indices in cluster-order.
  std::vector<size_t> ordering;

  /// reachability[i] = reachability distance of point i (by point index,
  /// not by ordering position).
  std::vector<double> reachability;

  /// core_distance[i] = core distance of point i (+inf when not core).
  std::vector<double> core_distance;

  /// The max_eps the run was executed with (cluster-order jumps larger
  /// than this appear as infinite reachability).
  double max_eps = 0.0;

  size_t size() const { return ordering.size(); }
};

/// Runs OPTICS over planar points: one serial pass that queries each
/// point's ε-neighborhood once, when the ordering expands it.
OpticsResult RunOptics(const std::vector<Vec2>& points,
                       const OpticsOptions& options);

/// DBSCAN-equivalent extraction at radius `eps` ≤ options.max_eps, following
/// the ExtractDBSCAN-Clustering procedure of the OPTICS paper.
Clustering ExtractClustersEpsCut(const OpticsResult& optics, double eps);

/// Parameter-free extraction used by Pervasive Miner's Algorithm 4:
/// "Optics … chooses an optimal distance threshold with sufficiently high
/// density for each cluster". We pick the cut radius from the reachability
/// plot with a largest-relative-gap heuristic (separating within-cluster
/// reachabilities from between-cluster jumps), run the ε-cut extraction at
/// that radius, and discard clusters smaller than `min_cluster_size`.
Clustering ExtractClustersAuto(const OpticsResult& optics,
                               size_t min_cluster_size);

/// Convenience wrapper: RunOptics + ExtractClustersAuto. `min_pts` is used
/// both as the OPTICS MinPts and as the minimum cluster size, matching
/// Algorithm 4 line 6's Optics({...}, σ).
Clustering OpticsCluster(const std::vector<Vec2>& points, size_t min_pts,
                         double max_eps = 500.0);

}  // namespace csd

#endif  // CSD_CLUSTER_OPTICS_H_
