#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/grid_index.h"
#include "util/rng.h"

namespace csd {
namespace {

std::vector<Vec2> RandomPoints(size_t n, double extent, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0.0, extent), rng.Uniform(0.0, extent)});
  }
  return pts;
}

std::vector<size_t> BruteRadius(const std::vector<Vec2>& pts,
                                const Vec2& q, double r) {
  std::vector<size_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (Distance(pts[i], q) <= r) out.push_back(i);
  }
  return out;
}

size_t BruteNearest(const std::vector<Vec2>& pts, const Vec2& q) {
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < pts.size(); ++i) {
    double d = Distance(pts[i], q);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

// --- GridIndex -----------------------------------------------------------

TEST(GridIndexTest, EmptyIndex) {
  GridIndex index({}, 10.0);
  EXPECT_TRUE(index.RadiusQuery({0, 0}, 100.0).empty());
  EXPECT_EQ(index.Nearest({0, 0}), std::numeric_limits<size_t>::max());
}

TEST(GridIndexTest, RadiusBoundaryInclusive) {
  GridIndex index({{0, 0}, {10, 0}}, 5.0);
  auto hits = index.RadiusQuery({0, 0}, 10.0);
  EXPECT_EQ(hits.size(), 2u);  // exactly-at-radius point included
}

TEST(GridIndexTest, NegativeRadiusYieldsNothing) {
  GridIndex index({{0, 0}}, 5.0);
  EXPECT_TRUE(index.RadiusQuery({0, 0}, -1.0).empty());
}

TEST(GridIndexTest, NegativeCoordinatesWork) {
  GridIndex index({{-100, -100}, {-105, -100}, {50, 50}}, 10.0);
  auto hits = index.RadiusQuery({-100, -100}, 6.0);
  EXPECT_EQ(hits.size(), 2u);
}

/// Property sweep: grid results equal brute force for random workloads,
/// across cell sizes relative to the query radius.
class GridIndexPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(GridIndexPropertyTest, MatchesBruteForce) {
  double cell = GetParam();
  auto pts = RandomPoints(500, 1000.0, 99);
  GridIndex index(pts, cell);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    Vec2 q{rng.Uniform(-50.0, 1050.0), rng.Uniform(-50.0, 1050.0)};
    double r = rng.Uniform(0.0, 150.0);
    auto got = index.RadiusQuery(q, r);
    auto want = BruteRadius(pts, q, r);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "cell=" << cell << " r=" << r;
    EXPECT_EQ(index.CountInRadius(q, r), want.size());
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, GridIndexPropertyTest,
                         ::testing::Values(5.0, 25.0, 100.0, 400.0));

TEST(GridIndexTest, SingleCellHoldsEverything) {
  // All points land in one grid cell; the CSR layout degenerates to a
  // single bucket and queries must still filter by true distance.
  std::vector<Vec2> pts = {{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  GridIndex index(pts, 1000.0);
  auto all = index.RadiusQuery({2.5, 2.5}, 10.0);
  EXPECT_EQ(all.size(), 4u);
  auto some = index.RadiusQuery({1, 1}, 1.5);
  std::sort(some.begin(), some.end());
  EXPECT_EQ(some, (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(index.RadiusQuery({500, 500}, 10.0).empty());
}

TEST(GridIndexTest, ForEachInRadiusOnEmptyIndexIsANoop) {
  GridIndex index({}, 10.0);
  size_t calls = 0;
  index.ForEachInRadius({0, 0}, 100.0, [&](size_t) { ++calls; });
  index.ForEachInRadiusSq({0, 0}, 100.0, [&](size_t, double) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(GridIndexTest, ForEachInRadiusSqMatchesBruteForce) {
  // The callback variants walk the replicated cell_points_ payload; check
  // them against brute force, and check the handed-out squared distance is
  // exactly the one Distance() would produce (callers rely on
  // sqrt(d2) == Distance(p, q) bit for bit).
  auto pts = RandomPoints(400, 1000.0, 123);
  GridIndex index(pts, 40.0);
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    Vec2 q{rng.Uniform(-50.0, 1050.0), rng.Uniform(-50.0, 1050.0)};
    double r = rng.Uniform(0.0, 120.0);
    std::vector<size_t> got;
    index.ForEachInRadiusSq(q, r, [&](size_t id, double d2) {
      got.push_back(id);
      EXPECT_EQ(std::sqrt(d2), Distance(pts[id], q));
    });
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteRadius(pts, q, r));

    std::vector<size_t> via_foreach;
    index.ForEachInRadius(q, r, [&](size_t id) { via_foreach.push_back(id); });
    std::sort(via_foreach.begin(), via_foreach.end());
    EXPECT_EQ(via_foreach, got);
  }
}

TEST(GridIndexTest, NearestMatchesBruteForce) {
  auto pts = RandomPoints(300, 1000.0, 5);
  GridIndex index(pts, 30.0);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    Vec2 q{rng.Uniform(-200.0, 1200.0), rng.Uniform(-200.0, 1200.0)};
    size_t got = index.Nearest(q);
    size_t want = BruteNearest(pts, q);
    EXPECT_DOUBLE_EQ(Distance(pts[got], q), Distance(pts[want], q));
  }
}

}  // namespace
}  // namespace csd
