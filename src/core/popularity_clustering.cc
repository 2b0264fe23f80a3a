#include "core/popularity_clustering.h"

#include <span>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/dense_scratch.h"

namespace csd {

namespace {

/// Mutual popularity-ratio test of Algorithm 1 line 5:
/// pop_a/pop_b ≥ α and pop_b/pop_a ≥ α. Two zero-popularity POIs are
/// considered equally (un)popular and pass; a zero against a non-zero
/// fails.
bool PopularityCompatible(double pop_a, double pop_b, double alpha) {
  if (pop_a == 0.0 && pop_b == 0.0) return true;
  if (pop_a == 0.0 || pop_b == 0.0) return false;
  double lo = std::min(pop_a, pop_b);
  double hi = std::max(pop_a, pop_b);
  return lo / hi >= alpha;
}

// Per-POI state word of PopularityBasedClusteringOn.
constexpr uint32_t kTaken = 1u << 31;      // removed from P (line 3 / 8)
constexpr uint32_t kClustered = 1u << 30;  // member of a kept cluster
constexpr uint32_t kEpochMask = kClustered - 1;  // "queued" seed epoch

}  // namespace

PopularityClusteringResult PopularityBasedClustering(
    const PoiDatabase& pois, const PopularityModel& popularity,
    const PopularityClusteringOptions& options,
    std::span<const uint32_t> eps_offsets, std::span<const PoiId> eps_flat) {
  // The greedy expansion consumes every POI's ε-neighborhood at most once;
  // the range queries dominate and are independent, so they run up front
  // (in parallel when the pool has workers) unless the caller injected
  // them, and the expansion replays the cached lists.
  std::vector<uint32_t> nb_offsets;
  std::vector<PoiId> nb_flat;
  if (eps_offsets.empty()) {
    BuildEpsCsr(pois, options.eps, nb_offsets, nb_flat);
    eps_offsets = nb_offsets;
    eps_flat = nb_flat;
  }
  std::vector<PoiId> all(pois.size());
  for (size_t pid = 0; pid < all.size(); ++pid) {
    all[pid] = static_cast<PoiId>(pid);
  }
  PopularityClusteringResult result;
  PopularityBasedClusteringOn(pois, popularity, options, eps_offsets,
                              eps_flat, StageDomain{.pois = all}, result);
  return result;
}

void PopularityBasedClusteringOn(const PoiDatabase& pois,
                                 const PopularityModel& popularity,
                                 const PopularityClusteringOptions& options,
                                 std::span<const uint32_t> eps_offsets,
                                 std::span<const PoiId> eps_flat,
                                 const StageDomain& domain,
                                 PopularityClusteringResult& out) {
  CSD_CHECK_MSG(options.eps > 0.0, "eps must be positive");
  CSD_CHECK_MSG(options.alpha > 0.0 && options.alpha <= 1.0,
                "alpha must be in (0, 1]");
  CSD_CHECK_MSG(eps_offsets.size() == pois.size() + 1,
                "eps cache has wrong offset count");
  CSD_CHECK_MSG(domain.size() < kEpochMask, "stage domain too large");
  auto eps_neighbors = [&](PoiId pid) {
    return eps_flat.subspan(eps_offsets[pid],
                            eps_offsets[pid + 1] - eps_offsets[pid]);
  };

  // Candidate entry: the POI plus the member whose range search found it
  // (used when compare_to_seed is false).
  struct Candidate {
    PoiId poi;
    PoiId discoverer;
  };

  // One epoch-stamped word per domain POI, reused across calls on this
  // thread: the taken (removed from P) and clustered flags plus the
  // per-seed "queued" epoch. Reset is O(1), so a call costs work
  // proportional to its domain, never to the city; the cluster and
  // candidate buffers are hoisted the same way and only kept clusters
  // are materialized.
  thread_local DenseScratch<uint32_t> state;
  thread_local std::vector<PoiId> cluster;
  thread_local std::vector<Candidate> v;
  state.Reset(domain.size());
  auto at = [&](PoiId pid) -> uint32_t& { return state[domain.Local(pid)]; };
  uint32_t epoch = 0;
  size_t clusters_before = out.clusters.size();

  for (PoiId seed : domain.pois) {
    if (at(seed) & kTaken) continue;
    at(seed) |= kTaken;
    cluster.assign(1, seed);

    v.clear();
    ++epoch;
    at(seed) = (at(seed) & ~kEpochMask) | epoch;
    auto enqueue_range = [&](PoiId member) {
      for (PoiId found : eps_neighbors(member)) {
        uint32_t& s = at(found);
        if ((s & kTaken) || (s & kEpochMask) == epoch) continue;
        s = (s & ~kEpochMask) | epoch;
        v.push_back({found, member});
      }
    };
    enqueue_range(seed);

    const Poi& seed_poi = pois.poi(seed);
    double seed_pop = popularity.popularity(seed);

    for (size_t i = 0; i < v.size(); ++i) {  // V grows while we scan it
      Candidate cand = v[i];
      uint32_t& cand_state = at(cand.poi);
      if (cand_state & kTaken) continue;
      const Poi& pj = pois.poi(cand.poi);

      const Poi& ref =
          options.compare_to_seed ? seed_poi : pois.poi(cand.discoverer);
      double ref_pop = options.compare_to_seed
                           ? seed_pop
                           : popularity.popularity(cand.discoverer);

      if (!PopularityCompatible(popularity.popularity(cand.poi), ref_pop,
                                options.alpha)) {
        cand_state &= ~kEpochMask;  // stays available to other discoverers
        continue;
      }
      bool vertically_overlapping =
          Distance(ref.position, pj.position) <= options.vertical_overlap;
      if (!vertically_overlapping && pj.major() != ref.major()) {
        cand_state &= ~kEpochMask;
        continue;
      }
      cand_state |= kTaken;
      cluster.push_back(cand.poi);
      enqueue_range(cand.poi);
    }

    if (cluster.size() >= options.min_pts) {
      for (PoiId pid : cluster) at(pid) |= kClustered;
      out.clusters.emplace_back(cluster.begin(), cluster.end());
    }
    // Small clusters dissolve: per the pseudocode their POIs were already
    // removed from P, so they end up unclustered (handled below).
  }

  size_t unclustered_before = out.unclustered.size();
  for (PoiId pid : domain.pois) {
    if (!(at(pid) & kClustered)) out.unclustered.push_back(pid);
  }
  static obs::Counter& clusters_counter =
      obs::MetricsRegistry::Get().GetCounter(
          "csd_popularity_clusters_total",
          "Coarse clusters kept by popularity-based clustering");
  static obs::Counter& unclustered_counter =
      obs::MetricsRegistry::Get().GetCounter(
          "csd_unclustered_pois_total",
          "POIs left unclustered by popularity-based clustering");
  clusters_counter.Increment(out.clusters.size() - clusters_before);
  unclustered_counter.Increment(out.unclustered.size() - unclustered_before);
}

}  // namespace csd
