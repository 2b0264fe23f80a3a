#ifndef CSD_CORE_POPULARITY_H_
#define CSD_CORE_POPULARITY_H_

#include <vector>

#include "poi/poi_database.h"
#include "traj/trajectory.h"

namespace csd {

/// Gaussian distribution coefficient ||p, p'|| of Equation (2): a normal
/// kernel with σ = R₃σ/3, so that stay points farther than R₃σ (3σ) are
/// negligible. Models GPS noise around the true activity location.
double GaussianCoefficient(double distance_m, double r3sigma_m);

/// Time decay of the popularity evidence: with a half-life H, a stay
/// observed at time t contributes 2^-((as_of - t)/H) of its Equation (3)
/// mass when the field is evaluated "as of" time as_of. H = 0 disables
/// decay (Eq. 3 exactly as published, every stay at weight 1), which is
/// the default everywhere — all committed baselines are pinned to it.
struct PopularityDecayOptions {
  /// Half-life in seconds; 0 (or negative) switches decay off.
  double half_life_s = 0.0;

  /// The evaluation instant. 0 means "resolve to the newest stay time of
  /// the whole dataset" — resolution happens once at the top of a build
  /// (CsdBuilder::Build / ShardedCsdBuild), never per tile, so tiled and
  /// monolithic builds see the same instant.
  Timestamp as_of = 0;

  bool enabled() const { return half_life_s > 0.0; }
};

/// The 2^-((as_of - t)/H) factor above. Exact powers of two, so moving a
/// weight from one instant to a later one (the common factor a clean
/// component's stays share between two in-tile generations,
/// core/incremental_csd.h) composes without drift:
/// DecayWeight(t, b, H) == DecayWeight(t, a, H) * DecayWeight(a, b, H)
/// holds to the last bit whenever (b - a) is an exact multiple of H.
/// `half_life_s` must be > 0; stays from the future (t > as_of) are
/// clamped to weight 1 rather than amplified.
double DecayWeight(Timestamp stay_time, Timestamp as_of, double half_life_s);

/// The instant an `as_of = 0` build resolves to: the newest stay time in
/// `stays` (0 when empty).
Timestamp ResolveDecayAsOf(const std::vector<StayPoint>& stays);

/// The popularity model of Section 4.1: pop(p^I) is the Gaussian-weighted
/// count of stay points within R₃σ of the POI (Equation (3)). POIs near
/// many pick-up/drop-off locations are popular; popularity drives both the
/// coarse clustering (Algorithm 1) and the recognition votes (Algorithm 3).
class PopularityModel {
 public:
  /// Computes pop(·) for every POI of `pois` against the stay points
  /// `stays` (the D_sp of the paper). R₃σ defaults to the paper's 100 m.
  /// With decay enabled each stay's Gaussian mass is scaled by its
  /// DecayWeight at `decay.as_of` (which must already be resolved — this
  /// class never infers an instant from `stays`); with decay off the
  /// accumulation is byte-identical to what it has always produced.
  PopularityModel(const PoiDatabase& pois, const std::vector<StayPoint>& stays,
                  double r3sigma_m = 100.0, PopularityDecayOptions decay = {});

  /// Adopts precomputed per-POI popularity values (e.g. from a sharded
  /// tile build — see shard/sharded_build.h). The values must have been
  /// produced by the same Equation (3) accumulation this class performs.
  PopularityModel(std::vector<double> values, double r3sigma_m);

  double popularity(PoiId id) const { return popularity_[id]; }
  const std::vector<double>& popularities() const { return popularity_; }
  double r3sigma() const { return r3sigma_; }

 private:
  double r3sigma_;
  std::vector<double> popularity_;
};

}  // namespace csd

#endif  // CSD_CORE_POPULARITY_H_
