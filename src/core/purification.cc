#include "core/purification.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "geo/stats.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/parallel.h"

namespace csd {

namespace {

bool SingleSemantic(const std::vector<PoiId>& cluster,
                    const PoiDatabase& pois) {
  if (cluster.empty()) return true;
  MajorCategory first = pois.poi(cluster.front()).major();
  for (PoiId pid : cluster) {
    if (pois.poi(pid).major() != first) return false;
  }
  return true;
}

double ClusterVariance(const std::vector<PoiId>& cluster,
                       const PoiDatabase& pois) {
  std::vector<Vec2> positions;
  positions.reserve(cluster.size());
  for (PoiId pid : cluster) positions.push_back(pois.poi(pid).position);
  return SpatialVariance(positions);
}

PoiId CenterPoi(const std::vector<PoiId>& cluster, const PoiDatabase& pois) {
  std::vector<Vec2> positions;
  positions.reserve(cluster.size());
  for (PoiId pid : cluster) positions.push_back(pois.poi(pid).position);
  return cluster[CenterPointIndex(positions)];
}

}  // namespace

std::array<double, kNumMajorCategories> InnerSemanticDistribution(
    const std::vector<PoiId>& cluster, PoiId anchor, const PoiDatabase& pois,
    double r3sigma) {
  std::array<double, kNumMajorCategories> dist{};
  const Vec2& anchor_pos = pois.poi(anchor).position;
  double total = 0.0;
  for (PoiId pid : cluster) {
    const Poi& p = pois.poi(pid);
    double w = GaussianCoefficient(Distance(p.position, anchor_pos), r3sigma);
    dist[static_cast<size_t>(p.major())] += w;
    total += w;
  }
  if (total > 0.0) {
    for (double& v : dist) v /= total;
  }
  return dist;
}

double KlDivergence(const std::array<double, kNumMajorCategories>& pr_i,
                    const std::array<double, kNumMajorCategories>& pr_j,
                    double epsilon) {
  double kl = 0.0;
  for (int s = 0; s < kNumMajorCategories; ++s) {
    if (pr_i[s] <= 0.0) continue;  // 0·log(0/x) = 0
    double q = std::max(pr_j[s], epsilon);
    kl += pr_i[s] * std::log(pr_i[s] / q);
  }
  return std::max(kl, 0.0);
}

std::vector<std::vector<PoiId>> SemanticPurification(
    std::vector<std::vector<PoiId>> coarse_clusters, const PoiDatabase& pois,
    const PurificationOptions& options,
    std::vector<uint32_t>* units_per_cluster) {
  static obs::Counter& splits_counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_purification_splits_total",
      "Cluster splits performed by semantic purification");
  // Each coarse cluster purifies independently (splits only ever divide a
  // cluster's own members), so clusters are processed to completion one at
  // a time and the output is cluster-major. The block lengths give the
  // component stage runner (core/component_stages.h) each unit's
  // (cluster seed, block) key for its canonical splice.
  std::vector<std::vector<PoiId>> units;
  std::deque<std::vector<PoiId>> work;
  if (units_per_cluster != nullptr) units_per_cluster->clear();
  for (std::vector<PoiId>& coarse : coarse_clusters) {
    size_t units_before = units.size();
    work.clear();
    work.push_back(std::move(coarse));
    while (!work.empty()) {
      std::vector<PoiId> cluster = std::move(work.front());
      work.pop_front();
      if (cluster.empty()) continue;

      // Lines 4-5: already a fine-grained unit?
      if (SingleSemantic(cluster, pois) ||
          ClusterVariance(cluster, pois) < options.v_min) {
        units.push_back(std::move(cluster));
        continue;
      }

      // Lines 7-9: KL of every member against the central POI. Each member's
      // distribution is an O(|cluster|) Gaussian sweep, making this loop the
      // stage's quadratic hot spot; members are independent, so it runs on
      // the pool with a grain inversely proportional to the per-member cost.
      PoiId center = CenterPoi(cluster, pois);
      auto pr_center = InnerSemanticDistribution(cluster, center, pois,
                                                 options.r3sigma);
      std::vector<double> kl(cluster.size());
      size_t grain = std::max<size_t>(1, 4096 / cluster.size());
      ParallelFor(
          cluster.size(),
          [&](size_t k) {
            auto pr_k = InnerSemanticDistribution(cluster, cluster[k], pois,
                                                  options.r3sigma);
            kl[k] = KlDivergence(pr_k, pr_center, options.kl_epsilon);
          },
          {.grain = grain});

      // Line 10: median KL (lower median, so that a mixed pair — KL values
      // {0, x} — still splits at the strict > below).
      std::vector<double> sorted_kl = kl;
      size_t median_idx = (sorted_kl.size() - 1) / 2;
      std::nth_element(sorted_kl.begin(), sorted_kl.begin() + median_idx,
                       sorted_kl.end());
      double median = sorted_kl[median_idx];

      // Lines 11-13: split off the members farther (in KL) than the median.
      std::vector<PoiId> keep;
      std::vector<PoiId> split;
      for (size_t k = 0; k < cluster.size(); ++k) {
        if (kl[k] > median) {
          split.push_back(cluster[k]);
        } else {
          keep.push_back(cluster[k]);
        }
      }

      if (split.empty()) {
        // Termination guard: KL-homogeneous but mixed cluster; accept.
        units.push_back(std::move(cluster));
        continue;
      }
      work.push_back(std::move(keep));
      work.push_back(std::move(split));
      splits_counter.Increment();
    }
    if (units_per_cluster != nullptr) {
      units_per_cluster->push_back(
          static_cast<uint32_t>(units.size() - units_before));
    }
  }
  static obs::Counter& units_counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_purified_units_total", "Semantic units emitted by purification");
  units_counter.Increment(units.size());
  return units;
}

}  // namespace csd
