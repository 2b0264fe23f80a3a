#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "cluster/dbscan.h"
#include "cluster/mean_shift.h"
#include "cluster/optics.h"
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
