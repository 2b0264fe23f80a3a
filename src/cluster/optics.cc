#include "cluster/optics.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "index/grid_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace csd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A point's ε-neighborhood entry with the distance computed once; shared
/// by the core-distance selection and the reachability updates.
struct Neighbor {
  size_t index;
  double distance;
};

/// Core distance of a point with ε-neighborhood `neighbors` (itself
/// included): the min_pts-th smallest distance, +inf below min_pts.
double CoreDistance(const std::vector<Neighbor>& neighbors, size_t min_pts,
                    std::vector<double>& dists) {
  size_t s = neighbors.size();
  if (s < min_pts) return kInf;
  size_t k = min_pts - 1;  // core distance = k-th smallest, 0-based
  size_t j = s - k;        // equivalently the j-th largest
  // The core distance is the value of a fixed order statistic, which any
  // selection algorithm yields identically; pick by which side is
  // cheaper. Dense neighborhoods sit just above min_pts, where a j-slot
  // min-heap of the largest distances beats a full nth_element pass —
  // but only while the heap stays small enough that its sifts are
  // cheaper than introselect's partition passes.
  dists.clear();
  if (j <= 16 && j <= k) {
    auto gt = std::greater<double>();
    for (const Neighbor& nb : neighbors) {
      double x = nb.distance;
      if (dists.size() < j) {
        dists.push_back(x);
        std::push_heap(dists.begin(), dists.end(), gt);
      } else if (x > dists.front()) {
        std::pop_heap(dists.begin(), dists.end(), gt);
        dists.back() = x;
        std::push_heap(dists.begin(), dists.end(), gt);
      }
    }
    return dists.front();
  }
  for (const Neighbor& nb : neighbors) dists.push_back(nb.distance);
  std::nth_element(dists.begin(), dists.begin() + k, dists.end());
  return dists[k];
}

}  // namespace

OpticsResult RunOptics(const std::vector<Vec2>& points,
                       const OpticsOptions& options) {
  CSD_CHECK_MSG(options.max_eps > 0.0, "OPTICS max_eps must be positive");
  CSD_CHECK_MSG(options.min_pts >= 1, "OPTICS min_pts must be at least 1");
  size_t n = points.size();
  OpticsResult result;
  result.max_eps = options.max_eps;
  result.reachability.assign(n, kInf);
  result.core_distance.assign(n, kInf);
  result.ordering.reserve(n);
  if (n == 0) return result;

  GridIndex index(points, options.max_eps);

  // OPTICS needs a point's neighborhood exactly once, when the ordering
  // loop expands it, so each neighborhood is queried then and dropped:
  // one list (at most n entries) serves the point's core distance and its
  // reachability updates, and no per-point neighborhood is ever stored.
  // The scratch is thread_local so the refinement stage's burst of small
  // runs grows it once per thread instead of once per run.
  using Entry = std::pair<double, size_t>;
  struct Scratch {
    std::vector<Neighbor> neighbors;
    std::vector<double> dists;
    std::vector<char> processed;
    std::vector<Entry> seeds;
  };
  static thread_local Scratch scratch;
  std::vector<Neighbor>& neighbors = scratch.neighbors;
  std::vector<char>& processed = scratch.processed;
  processed.assign(n, 0);

  // Seed queue keyed by current reachability; stale entries are skipped.
  // A plain vector driven by push_heap/pop_heap is exactly the heap
  // std::priority_queue is specified to maintain (same comparator, same
  // push_back/push_heap and pop_heap/pop_back sequence, so the same pop
  // order under ties).
  auto cmp = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  std::vector<Entry>& seeds = scratch.seeds;
  seeds.clear();

  auto expand = [&](size_t p) {
    processed[p] = 1;
    result.ordering.push_back(p);
    neighbors.clear();
    // sqrt(d2) is Distance(points[p], points[q]) bit for bit; taking it
    // from the query skips a second trip through the point table.
    index.ForEachInRadiusSq(points[p], options.max_eps,
                            [&](size_t q, double d2) {
                              neighbors.push_back({q, std::sqrt(d2)});
                            });
    double core = CoreDistance(neighbors, options.min_pts, scratch.dists);
    result.core_distance[p] = core;
    if (core == kInf) return;
    for (const Neighbor& nb : neighbors) {
      size_t q = nb.index;
      if (processed[q]) continue;
      double new_reach = std::max(core, nb.distance);
      if (new_reach < result.reachability[q]) {
        result.reachability[q] = new_reach;
        seeds.emplace_back(new_reach, q);
        std::push_heap(seeds.begin(), seeds.end(), cmp);
      }
    }
  };

  for (size_t start = 0; start < n; ++start) {
    if (processed[start]) continue;
    expand(start);
    while (!seeds.empty()) {
      auto [reach, p] = seeds.front();
      std::pop_heap(seeds.begin(), seeds.end(), cmp);
      seeds.pop_back();
      if (processed[p] || reach != result.reachability[p]) continue;  // stale
      expand(p);
    }
  }
  return result;
}

Clustering ExtractClustersEpsCut(const OpticsResult& optics, double eps) {
  Clustering out;
  out.labels.assign(optics.reachability.size(), kNoiseLabel);
  int32_t current = kNoiseLabel;
  int32_t next_cluster = 0;
  for (size_t pos = 0; pos < optics.ordering.size(); ++pos) {
    size_t p = optics.ordering[pos];
    if (optics.reachability[p] > eps) {
      if (optics.core_distance[p] <= eps) {
        current = next_cluster++;
        out.labels[p] = current;
      } else {
        current = kNoiseLabel;
      }
    } else {
      out.labels[p] = current;
    }
  }
  out.num_clusters = next_cluster;
  return out;
}

namespace {

/// Chooses a cut radius from the reachability plot. Finite reachability
/// values split into "within-cluster" (small) and "between-cluster jump"
/// (large) populations; the largest relative gap in the sorted values marks
/// the boundary. Returns +inf when there is no meaningful gap (single
/// cluster).
double ChooseCutRadius(const OpticsResult& optics) {
  std::vector<double> values;
  values.reserve(optics.reachability.size());
  for (double r : optics.reachability) {
    if (std::isfinite(r) && r > 0.0) values.push_back(r);
  }
  if (values.size() < 4) return kInf;
  std::sort(values.begin(), values.end());

  // Scan the upper half of the sorted values for the largest relative jump.
  size_t begin = values.size() / 2;
  double best_ratio = 1.0;
  double cut = kInf;
  for (size_t i = std::max<size_t>(begin, 1); i + 1 < values.size(); ++i) {
    double lo = values[i];
    double hi = values[i + 1];
    if (lo <= 0.0) continue;
    double ratio = hi / lo;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      cut = 0.5 * (lo + hi);
    }
  }
  // Require a clear separation (inter-cluster jumps dwarf within-cluster
  // reachability steps); otherwise report "no gap" so the caller cuts at
  // max_eps. A lax threshold here would shave boundary points off
  // unimodal clusters.
  if (best_ratio < 2.0) return kInf;
  return cut;
}

}  // namespace

Clustering ExtractClustersAuto(const OpticsResult& optics,
                               size_t min_cluster_size) {
  double cut = ChooseCutRadius(optics);
  // No clear reachability gap: cut at max_eps, which still separates
  // disconnected components (their cluster-order jumps have infinite
  // reachability) while keeping each dense component whole.
  if (!std::isfinite(cut)) cut = optics.max_eps;
  Clustering raw = ExtractClustersEpsCut(optics, cut);

  // Drop clusters below the minimum size and renumber densely.
  std::vector<size_t> sizes(static_cast<size_t>(raw.num_clusters), 0);
  for (int32_t l : raw.labels) {
    if (l >= 0) sizes[static_cast<size_t>(l)]++;
  }
  std::vector<int32_t> remap(static_cast<size_t>(raw.num_clusters),
                             kNoiseLabel);
  int32_t next = 0;
  for (size_t c = 0; c < sizes.size(); ++c) {
    if (sizes[c] >= min_cluster_size) remap[c] = next++;
  }
  Clustering out;
  out.labels.resize(raw.labels.size());
  for (size_t i = 0; i < raw.labels.size(); ++i) {
    out.labels[i] =
        raw.labels[i] >= 0 ? remap[static_cast<size_t>(raw.labels[i])]
                           : kNoiseLabel;
  }
  out.num_clusters = next;
  return out;
}

Clustering OpticsCluster(const std::vector<Vec2>& points, size_t min_pts,
                         double max_eps) {
  CSD_TRACE_SPAN("optics/run");
  static obs::Counter& runs_counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_optics_runs_total", "OPTICS clustering invocations");
  static obs::Histogram& points_hist =
      obs::MetricsRegistry::Get().GetHistogram(
          "csd_optics_points", "Points per OPTICS invocation",
          {8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
           4096.0, 8192.0, 16384.0});
  runs_counter.Increment();
  points_hist.Observe(static_cast<double>(points.size()));
  OpticsOptions options;
  options.max_eps = max_eps;
  options.min_pts = std::max<size_t>(min_pts, 2);
  OpticsResult optics = RunOptics(points, options);
  return ExtractClustersAuto(optics, std::max<size_t>(min_pts, 1));
}

}  // namespace csd
