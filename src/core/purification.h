#ifndef CSD_CORE_PURIFICATION_H_
#define CSD_CORE_PURIFICATION_H_

#include <array>
#include <vector>

#include "core/popularity.h"
#include "poi/poi_database.h"

namespace csd {

/// Parameters of Algorithm 2 (Semantic Purification).
struct PurificationOptions {
  /// V_min: a cluster with spatial variance below this is accepted as a
  /// unit regardless of semantic mix (the multi-purpose skyscraper case).
  /// Default 225 m² ≈ (15 m)² matches the d_v vertical-overlap scale.
  double v_min = 225.0;

  /// R₃σ used by the Gaussian coefficients of the inner semantic
  /// distributions (Equation (4)).
  double r3sigma = 100.0;

  /// ε used to smooth zero probabilities in Equation (5); KL would
  /// otherwise be infinite when Pr_j(s) = 0 < Pr_i(s).
  double kl_epsilon = 1e-6;
};

/// Inner semantic distribution Pr_{p_i}(s) over a cluster (Equation (4)):
/// the Gaussian-coefficient-weighted share of each category as seen from
/// member `anchor`. Returned indexed by MajorCategory.
std::array<double, kNumMajorCategories> InnerSemanticDistribution(
    const std::vector<PoiId>& cluster, PoiId anchor, const PoiDatabase& pois,
    double r3sigma);

/// Kullback-Leibler divergence KL(Pr_i, Pr_j) of Equation (5), with
/// ε-smoothed zero probabilities on the second argument. Always ≥ 0 up to
/// smoothing, and 0 for identical distributions.
double KlDivergence(const std::array<double, kNumMajorCategories>& pr_i,
                    const std::array<double, kNumMajorCategories>& pr_j,
                    double epsilon = 1e-6);

/// Algorithm 2 — Semantic Purification: repeatedly splits semantically
/// mixed coarse clusters at the median KL-to-center until every cluster is
/// single-semantic or spatially tight (Var < V_min). The split keeps the
/// POIs most similar to the cluster's central POI and spins off the rest
/// as a new cluster, which is purified in turn.
///
/// Termination guard (documented deviation): when every member has the
/// same KL value the median split would move nothing; such KL-homogeneous
/// clusters are accepted as units.
///
/// The output is cluster-major: input cluster i's units form one
/// contiguous block, in the FIFO order of its own split tree. When
/// `units_per_cluster` is non-null it receives each block's length.
std::vector<std::vector<PoiId>> SemanticPurification(
    std::vector<std::vector<PoiId>> coarse_clusters, const PoiDatabase& pois,
    const PurificationOptions& options,
    std::vector<uint32_t>* units_per_cluster = nullptr);

}  // namespace csd

#endif  // CSD_CORE_PURIFICATION_H_
