#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>

#include "cluster/dbscan.h"
#include "cluster/mean_shift.h"
#include "cluster/optics.h"
#include "index/grid_index.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace csd {
namespace {

/// Two tight 30-point blobs 1 km apart plus 5 far-away noise points.
std::vector<Vec2> TwoBlobsWithNoise(uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.Gaussian(0.0, 10.0), rng.Gaussian(0.0, 10.0)});
  }
  for (int i = 0; i < 30; ++i) {
    pts.push_back({1000.0 + rng.Gaussian(0.0, 10.0),
                   rng.Gaussian(0.0, 10.0)});
  }
  for (int i = 0; i < 5; ++i) {
    pts.push_back({rng.Uniform(3000.0, 9000.0),
                   rng.Uniform(3000.0, 9000.0)});
  }
  return pts;
}

// --- DBSCAN -----------------------------------------------------------------

TEST(DbscanTest, SeparatesBlobsAndMarksNoise) {
  auto pts = TwoBlobsWithNoise();
  DbscanOptions options;
  options.eps = 50.0;
  options.min_pts = 5;
  Clustering c = Dbscan(pts, options);
  EXPECT_EQ(c.num_clusters, 2);
  EXPECT_EQ(c.NoiseCount(), 5u);
  // All of blob 1 shares a label; likewise blob 2, and they differ.
  for (int i = 1; i < 30; ++i) EXPECT_EQ(c.labels[i], c.labels[0]);
  for (int i = 31; i < 60; ++i) EXPECT_EQ(c.labels[i], c.labels[30]);
  EXPECT_NE(c.labels[0], c.labels[30]);
}

TEST(DbscanTest, EmptyInput) {
  Clustering c = Dbscan({}, {});
  EXPECT_EQ(c.num_clusters, 0);
  EXPECT_TRUE(c.labels.empty());
}

TEST(DbscanTest, AllNoiseWhenSparse) {
  std::vector<Vec2> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({i * 1000.0, 0.0});
  DbscanOptions options;
  options.eps = 50.0;
  options.min_pts = 3;
  Clustering c = Dbscan(pts, options);
  EXPECT_EQ(c.num_clusters, 0);
  EXPECT_EQ(c.NoiseCount(), 10u);
}

TEST(DbscanTest, PartitionInvariantToInputOrder) {
  auto pts = TwoBlobsWithNoise();
  DbscanOptions options;
  options.eps = 50.0;
  options.min_pts = 5;
  Clustering original = Dbscan(pts, options);

  // Reverse the input; the induced partition must be identical.
  std::vector<Vec2> reversed(pts.rbegin(), pts.rend());
  Clustering rev = Dbscan(reversed, options);
  ASSERT_EQ(rev.labels.size(), original.labels.size());
  size_t n = pts.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      bool together_orig = original.labels[i] == original.labels[j] &&
                           original.labels[i] != kNoiseLabel;
      bool together_rev =
          rev.labels[n - 1 - i] == rev.labels[n - 1 - j] &&
          rev.labels[n - 1 - i] != kNoiseLabel;
      EXPECT_EQ(together_orig, together_rev) << i << "," << j;
    }
  }
}

TEST(DbscanTest, GroupsMatchLabels) {
  auto pts = TwoBlobsWithNoise();
  DbscanOptions options;
  options.eps = 50.0;
  options.min_pts = 5;
  Clustering c = Dbscan(pts, options);
  auto groups = c.Groups();
  ASSERT_EQ(groups.size(), 2u);
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total + c.NoiseCount(), pts.size());
}

// --- OPTICS -----------------------------------------------------------------

TEST(OpticsTest, OrderingVisitsEveryPointOnce) {
  auto pts = TwoBlobsWithNoise();
  OpticsOptions options;
  options.max_eps = 200.0;
  options.min_pts = 5;
  OpticsResult r = RunOptics(pts, options);
  ASSERT_EQ(r.ordering.size(), pts.size());
  std::set<size_t> seen(r.ordering.begin(), r.ordering.end());
  EXPECT_EQ(seen.size(), pts.size());
}

TEST(OpticsTest, CoreDistanceIsKthNeighborDistance) {
  // 5 collinear points 10 m apart; with min_pts=3 the core distance of the
  // middle point is the distance to its 2nd-closest neighbor = 10.
  std::vector<Vec2> pts = {{0, 0}, {10, 0}, {20, 0}, {30, 0}, {40, 0}};
  OpticsOptions options;
  options.max_eps = 100.0;
  options.min_pts = 3;
  OpticsResult r = RunOptics(pts, options);
  EXPECT_DOUBLE_EQ(r.core_distance[2], 10.0);
  EXPECT_DOUBLE_EQ(r.core_distance[0], 20.0);  // neighbors at 10 and 20
}

TEST(OpticsTest, EpsCutMatchesDbscanPartition) {
  auto pts = TwoBlobsWithNoise();
  OpticsOptions options;
  options.max_eps = 500.0;
  options.min_pts = 5;
  OpticsResult r = RunOptics(pts, options);
  Clustering cut = ExtractClustersEpsCut(r, 50.0);

  DbscanOptions db;
  db.eps = 50.0;
  db.min_pts = 5;
  Clustering ref = Dbscan(pts, db);
  // Same number of clusters, same noise (border-point assignment may
  // differ between the two algorithms, core structure may not).
  EXPECT_EQ(cut.num_clusters, ref.num_clusters);
  EXPECT_EQ(cut.NoiseCount(), ref.NoiseCount());
}

TEST(OpticsTest, AutoExtractionFindsBothBlobs) {
  auto pts = TwoBlobsWithNoise();
  Clustering c = OpticsCluster(pts, 5, 5000.0);
  EXPECT_EQ(c.num_clusters, 2);
  for (int i = 1; i < 30; ++i) EXPECT_EQ(c.labels[i], c.labels[0]);
  for (int i = 31; i < 60; ++i) EXPECT_EQ(c.labels[i], c.labels[30]);
  EXPECT_NE(c.labels[0], c.labels[30]);
}

TEST(OpticsTest, AutoExtractionDropsSmallClusters) {
  // One blob of 20, one of 3; min cluster size 5 keeps only the first.
  Rng rng(5);
  std::vector<Vec2> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back({rng.Gaussian(0.0, 5.0), rng.Gaussian(0.0, 5.0)});
  }
  for (int i = 0; i < 3; ++i) {
    pts.push_back({2000.0 + rng.Gaussian(0.0, 5.0), rng.Gaussian(0.0, 5.0)});
  }
  Clustering c = OpticsCluster(pts, 5, 5000.0);
  EXPECT_EQ(c.num_clusters, 1);
  size_t in_cluster = 0;
  for (int32_t l : c.labels) in_cluster += l >= 0;
  EXPECT_EQ(in_cluster, 20u);
}

TEST(OpticsTest, EmptyInput) {
  OpticsResult r = RunOptics({}, {});
  EXPECT_TRUE(r.ordering.empty());
  Clustering c = ExtractClustersAuto(r, 5);
  EXPECT_EQ(c.num_clusters, 0);
}

TEST(OpticsTest, SingleDenseBlobIsOneCluster) {
  Rng rng(6);
  std::vector<Vec2> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back({rng.Gaussian(0.0, 20.0), rng.Gaussian(0.0, 20.0)});
  }
  Clustering c = OpticsCluster(pts, 5, 1000.0);
  EXPECT_EQ(c.num_clusters, 1);
  EXPECT_EQ(c.NoiseCount(), 0u);
}

TEST(OpticsTest, RejectsZeroMinPts) {
  std::vector<Vec2> pts = {{0, 0}, {10, 0}, {20, 0}};
  OpticsOptions options;
  options.max_eps = 100.0;
  options.min_pts = 0;
  EXPECT_DEATH(RunOptics(pts, options), "min_pts");
}

// --- OPTICS oracle ----------------------------------------------------------

/// The neighbor-list OPTICS that RunOptics replaced, kept as the oracle:
/// every point's ε-neighborhood (with distances) is precomputed into one
/// CSR block — in parallel when the pool has workers — and core distances
/// are taken from it before the ordering pass replays the cached lists.
OpticsResult RunOpticsReference(const std::vector<Vec2>& points,
                                const OpticsOptions& options) {
  struct Neighbor {
    size_t index;
    double distance;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  size_t n = points.size();
  OpticsResult result;
  result.max_eps = options.max_eps;
  result.reachability.assign(n, kInf);
  result.core_distance.assign(n, kInf);
  result.ordering.reserve(n);
  if (n == 0) return result;

  GridIndex index(points, options.max_eps);
  std::vector<uint32_t> nb_offsets(n + 1, 0);
  std::vector<Neighbor> nb_flat;
  auto core_from_range = [&](size_t p, std::vector<double>& dists) {
    std::span<const Neighbor> neighbors(nb_flat.data() + nb_offsets[p],
                                        nb_flat.data() + nb_offsets[p + 1]);
    size_t s = neighbors.size();
    if (s < options.min_pts) return kInf;
    size_t k = options.min_pts - 1;
    size_t j = s - k;
    if (j <= 16 && j <= k) {
      dists.clear();
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
    dists.clear();
    for (const Neighbor& nb : neighbors) dists.push_back(nb.distance);
    std::nth_element(dists.begin(), dists.begin() + k, dists.end());
    return dists[k];
  };
  if (DefaultParallelism() > 1) {
    ParallelFor(
        n,
        [&](size_t p) {
          nb_offsets[p + 1] = static_cast<uint32_t>(
              index.CountInRadius(points[p], options.max_eps));
        },
        {.grain = 32});
    for (size_t p = 0; p < n; ++p) nb_offsets[p + 1] += nb_offsets[p];
    nb_flat.resize(nb_offsets[n]);
    ParallelFor(
        n,
        [&](size_t p) {
          size_t w = nb_offsets[p];
          index.ForEachInRadiusSq(
              points[p], options.max_eps,
              [&](size_t q, double d2) { nb_flat[w++] = {q, std::sqrt(d2)}; });
        },
        {.grain = 32});
    ParallelFor(
        n,
        [&](size_t p) {
          static thread_local std::vector<double> dists;
          result.core_distance[p] = core_from_range(p, dists);
        },
        {.grain = 32});
  } else {
    std::vector<double> dists;
    for (size_t p = 0; p < n; ++p) {
      index.ForEachInRadiusSq(points[p], options.max_eps,
                              [&](size_t q, double d2) {
                                nb_flat.push_back({q, std::sqrt(d2)});
                              });
      nb_offsets[p + 1] = static_cast<uint32_t>(nb_flat.size());
      result.core_distance[p] = core_from_range(p, dists);
    }
  }

  std::vector<char> processed(n, 0);
  using Entry = std::pair<double, size_t>;
  auto cmp = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  std::vector<Entry> seeds;
  auto update_seeds = [&](size_t p, double core_dist) {
    for (uint32_t e = nb_offsets[p]; e < nb_offsets[p + 1]; ++e) {
      size_t q = nb_flat[e].index;
      if (processed[q]) continue;
      double new_reach = std::max(core_dist, nb_flat[e].distance);
      if (new_reach < result.reachability[q]) {
        result.reachability[q] = new_reach;
        seeds.emplace_back(new_reach, q);
        std::push_heap(seeds.begin(), seeds.end(), cmp);
      }
    }
  };
  for (size_t start = 0; start < n; ++start) {
    if (processed[start]) continue;
    processed[start] = 1;
    result.ordering.push_back(start);
    double core = result.core_distance[start];
    if (core != kInf) update_seeds(start, core);
    while (!seeds.empty()) {
      auto [reach, p] = seeds.front();
      std::pop_heap(seeds.begin(), seeds.end(), cmp);
      seeds.pop_back();
      if (processed[p] || reach != result.reachability[p]) continue;
      processed[p] = 1;
      result.ordering.push_back(p);
      double p_core = result.core_distance[p];
      if (p_core != kInf) update_seeds(p, p_core);
    }
  }
  return result;
}

/// Seeded blobs on a 5 m lattice: rounding makes many points co-located
/// and many pairwise distances equal, and every seventh point is repeated
/// verbatim, so the seed queue sees plenty of reachability ties.
std::vector<Vec2> TiedPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> centers;
  for (int c = 0; c < 6; ++c) {
    centers.push_back({rng.Uniform(0.0, 2000.0), rng.Uniform(0.0, 2000.0)});
  }
  std::vector<Vec2> pts;
  pts.reserve(n);
  while (pts.size() < n) {
    if (pts.size() % 7 == 6) {
      Vec2 twin = pts[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pts.size()) - 1))];
      pts.push_back(twin);
      continue;
    }
    const Vec2& c = centers[static_cast<size_t>(rng.UniformInt(0, 5))];
    double x = c.x + rng.Gaussian(0.0, 40.0);
    double y = c.y + rng.Gaussian(0.0, 40.0);
    pts.push_back({5.0 * std::round(x / 5.0), 5.0 * std::round(y / 5.0)});
  }
  return pts;
}

void ExpectBitIdentical(const std::vector<double>& want,
                        const std::vector<double>& got,
                        const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(want[i]), std::bit_cast<uint64_t>(got[i]))
        << what << " differs at point " << i << ": " << want[i] << " vs "
        << got[i];
  }
}

TEST(OpticsOracleTest, StreamingPassMatchesNeighborListReference) {
  for (size_t threads : {1u, 4u}) {
    SetDefaultParallelism(threads);
    for (size_t min_pts : {2u, 5u, 50u}) {
      for (size_t n : {size_t{0}, size_t{1}, min_pts - 1, size_t{300},
                       size_t{3000}}) {
        std::string label = "threads=" + std::to_string(threads) +
                            " min_pts=" + std::to_string(min_pts) +
                            " n=" + std::to_string(n);
        std::vector<Vec2> pts = TiedPoints(n, 17 + n + min_pts);
        OpticsOptions options;
        options.max_eps = 60.0;
        options.min_pts = min_pts;
        OpticsResult want = RunOpticsReference(pts, options);
        OpticsResult got = RunOptics(pts, options);
        EXPECT_EQ(want.ordering, got.ordering) << label;
        ExpectBitIdentical(want.reachability, got.reachability,
                           label + " reachability");
        ExpectBitIdentical(want.core_distance, got.core_distance,
                           label + " core_distance");
        EXPECT_EQ(got.max_eps, options.max_eps) << label;
      }
    }
  }
  SetDefaultParallelism(0);
}


// --- Mean Shift ----------------------------------------------------------------

TEST(MeanShiftTest, TwoModesInOneDimensionPairs) {
  // 2-d embedded points: two groups far apart.
  std::vector<std::vector<double>> pts;
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    pts.push_back({rng.Gaussian(0.0, 5.0), rng.Gaussian(0.0, 5.0)});
  }
  for (int i = 0; i < 20; ++i) {
    pts.push_back({rng.Gaussian(500.0, 5.0), rng.Gaussian(0.0, 5.0)});
  }
  MeanShiftOptions options;
  options.bandwidth = 50.0;
  Clustering c = MeanShift(pts, options);
  EXPECT_EQ(c.num_clusters, 2);
  for (int i = 1; i < 20; ++i) EXPECT_EQ(c.labels[i], c.labels[0]);
  for (int i = 21; i < 40; ++i) EXPECT_EQ(c.labels[i], c.labels[20]);
}

TEST(MeanShiftTest, NoNoiseLabelEveryPointAssigned) {
  std::vector<std::vector<double>> pts = {{0.0}, {1000.0}, {2000.0}};
  MeanShiftOptions options;
  options.bandwidth = 10.0;
  Clustering c = MeanShift(pts, options);
  EXPECT_EQ(c.num_clusters, 3);  // isolated points are their own modes
  EXPECT_EQ(c.NoiseCount(), 0u);
}

TEST(MeanShiftTest, GaussianKernelAlsoConverges) {
  std::vector<std::vector<double>> pts;
  Rng rng(13);
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.Gaussian(0.0, 5.0)});
  }
  MeanShiftOptions options;
  options.bandwidth = 30.0;
  options.gaussian_kernel = true;
  Clustering c = MeanShift(pts, options);
  EXPECT_EQ(c.num_clusters, 1);
}

TEST(MeanShiftTest, FourDimensionalEmbedding) {
  // Same-looking pairs in 4-d (the Splitter use case with m=2).
  std::vector<std::vector<double>> pts;
  Rng rng(14);
  for (int i = 0; i < 15; ++i) {
    pts.push_back({rng.Gaussian(0, 3), rng.Gaussian(0, 3),
                   rng.Gaussian(900, 3), rng.Gaussian(0, 3)});
  }
  for (int i = 0; i < 15; ++i) {
    pts.push_back({rng.Gaussian(0, 3), rng.Gaussian(0, 3),
                   rng.Gaussian(-900, 3), rng.Gaussian(0, 3)});
  }
  MeanShiftOptions options;
  options.bandwidth = 60.0;
  Clustering c = MeanShift(pts, options);
  EXPECT_EQ(c.num_clusters, 2);
}

TEST(MeanShiftTest, EmptyInput) {
  Clustering c = MeanShift({}, {});
  EXPECT_EQ(c.num_clusters, 0);
}

}  // namespace
}  // namespace csd
