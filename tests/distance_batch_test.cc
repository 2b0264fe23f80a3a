// Byte-identity contract of the batched geometry kernels (SIMD and
// scalar) against their element-wise oracles, and of the SoA batch
// annotator against the AoS voting recognizer. "Identical" here means
// bit-equal doubles (memcmp, not EXPECT_NEAR): the serving path mixes
// scalar and batched evaluation, so a single ULP of drift would make
// annotation results depend on which code path a request happened to
// take.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/batch_annotator.h"
#include "core/semantic_recognition.h"
#include "geo/distance.h"
#include "geo/distance_batch.h"
#include "geo/point.h"
#include "geo/projection.h"
#include "serve/snapshot.h"
#include "tests/serve_test_helpers.h"
#include "util/rng.h"

namespace csd {
namespace {

using serve::CsdSnapshot;
using serve::testing::MakeTestDataset;
using serve::testing::MonolithicPlan;
using serve::testing::TestSnapshotOptions;

/// Every kernel this CPU can run — parity must hold on each.
std::vector<DistanceKernel> SupportedKernels() {
  std::vector<DistanceKernel> kernels = {DistanceKernel::kScalar};
  if (DistanceKernelSupported(DistanceKernel::kAvx2)) {
    kernels.push_back(DistanceKernel::kAvx2);
  }
  return kernels;
}

class DistanceBatchTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetDistanceKernelForTest(); }
};

TEST_F(DistanceBatchTest, SquaredDistanceMatchesScalarOracleBitForBit) {
  Rng rng(7);
  for (DistanceKernel kernel : SupportedKernels()) {
    SetDistanceKernelForTest(kernel);
    // 0 and 1 are the degenerate sizes, 7 exercises the SIMD tail, 64
    // is whole vectors, 1001 is many vectors plus a tail.
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                     size_t{1001}}) {
      std::vector<double> xs(n), ys(n);
      for (size_t i = 0; i < n; ++i) {
        xs[i] = rng.Uniform(-5e4, 5e4);
        ys[i] = rng.Uniform(-5e4, 5e4);
      }
      double qx = rng.Uniform(-5e4, 5e4);
      double qy = rng.Uniform(-5e4, 5e4);
      std::vector<double> batch(n, -1.0);
      SquaredDistanceBatch(qx, qy, xs.data(), ys.data(), n, batch.data());
      for (size_t i = 0; i < n; ++i) {
        double oracle = SquaredDistance(Vec2{xs[i], ys[i]}, Vec2{qx, qy});
        ASSERT_EQ(std::memcmp(&batch[i], &oracle, sizeof(double)), 0)
            << "kernel " << static_cast<int>(kernel) << " n=" << n
            << " i=" << i;
        double d = std::sqrt(batch[i]);
        double d_oracle = Distance(Vec2{xs[i], ys[i]}, Vec2{qx, qy});
        ASSERT_EQ(std::memcmp(&d, &d_oracle, sizeof(double)), 0);
      }
    }
  }
}

TEST_F(DistanceBatchTest, ProjectionMatchesLocalProjectionBitForBit) {
  // Origins in all four hemisphere quadrants, on the equator, near the
  // poles, and straddling the antimeridian — cos(lat) and the sign
  // structure differ in each, so any operation-order difference from
  // the scalar path would surface as a bit mismatch somewhere here.
  const GeoPoint origins[] = {
      {116.4, 39.9},    // Beijing: NE quadrant
      {-74.0, 40.7},    // New York: NW
      {151.2, -33.9},   // Sydney: SE
      {-70.6, -33.4},   // Santiago: SW
      {0.0, 0.0},       // equator / prime meridian
      {12.5, 78.2},     // high latitude (small cos scale)
      {179.95, -16.5},  // just west of the antimeridian
      {-179.95, 52.0},  // just east of it
  };
  Rng rng(11);
  for (DistanceKernel kernel : SupportedKernels()) {
    SetDistanceKernelForTest(kernel);
    for (const GeoPoint& origin : origins) {
      LocalProjection oracle(origin);
      for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
        std::vector<GeoPoint> pts(n);
        for (size_t i = 0; i < n; ++i) {
          // Spread around the origin, including points whose lon sits
          // on the other side of the antimeridian from the origin.
          pts[i] = GeoPoint(origin.lon + rng.Uniform(-0.3, 0.3),
                            origin.lat + rng.Uniform(-0.3, 0.3));
        }
        std::vector<Vec2> batch(n, Vec2{-1.0, -1.0});
        EquirectangularProjectBatch(origin, pts.data(), n, batch.data());
        for (size_t i = 0; i < n; ++i) {
          Vec2 expected = oracle.Project(pts[i]);
          ASSERT_EQ(std::memcmp(&batch[i].x, &expected.x, sizeof(double)),
                    0)
              << "kernel " << static_cast<int>(kernel) << " origin ("
              << origin.lon << "," << origin.lat << ") i=" << i;
          ASSERT_EQ(std::memcmp(&batch[i].y, &expected.y, sizeof(double)),
                    0);
        }
      }
    }
  }
}

TEST_F(DistanceBatchTest, DispatchReportsForcedKernel) {
  SetDistanceKernelForTest(DistanceKernel::kScalar);
  EXPECT_EQ(ActiveDistanceKernel(), DistanceKernel::kScalar);
  if (DistanceKernelSupported(DistanceKernel::kAvx2)) {
    SetDistanceKernelForTest(DistanceKernel::kAvx2);
    EXPECT_EQ(ActiveDistanceKernel(), DistanceKernel::kAvx2);
  }
  ResetDistanceKernelForTest();
  EXPECT_TRUE(DistanceKernelSupported(ActiveDistanceKernel()));
}

class BatchAnnotatorParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto dataset = MakeTestDataset();
    snapshot_ = new std::shared_ptr<CsdSnapshot>(std::make_shared<CsdSnapshot>(
        dataset, TestSnapshotOptions(false), MonolithicPlan(dataset)));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    snapshot_ = nullptr;
  }
  void TearDown() override { ResetDistanceKernelForTest(); }

  static std::shared_ptr<CsdSnapshot>* snapshot_;
};

std::shared_ptr<CsdSnapshot>* BatchAnnotatorParityTest::snapshot_ = nullptr;

struct Annotation {
  UnitId unit = kNoUnit;
  uint32_t bits = 0;
  bool operator==(const Annotation& other) const {
    return unit == other.unit && bits == other.bits;
  }
};

std::vector<Vec2> QueryGrid() {
  // A deterministic sweep across the whole test city, dense enough to
  // cross many unit boundaries (where argmax ties and near-ties live).
  std::vector<Vec2> queries;
  for (double x = -100.0; x <= 6100.0; x += 97.0) {
    for (double y = -100.0; y <= 6100.0; y += 193.0) {
      queries.push_back(Vec2{x, y});
    }
  }
  return queries;
}

std::vector<Annotation> AnnotateAll(const BatchCsdAnnotator& annotator,
                                    const std::vector<Vec2>& queries) {
  std::vector<Annotation> results(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    results[i].unit = kNoUnit;
    SemanticProperty property =
        annotator.Annotate(queries[i], &results[i].unit);
    results[i].bits = property.bits();
  }
  return results;
}

TEST_F(BatchAnnotatorParityTest, MatchesVotingRecognizerOnEveryKernel) {
  const CsdSnapshot& snapshot = **snapshot_;
  const CsdRecognizer& oracle = snapshot.recognizer();
  std::vector<Vec2> queries = QueryGrid();

  std::vector<Annotation> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected[i].unit = kNoUnit;
    SemanticProperty property =
        oracle.RecognizeWithUnit(queries[i], &expected[i].unit);
    expected[i].bits = property.bits();
  }

  for (DistanceKernel kernel : SupportedKernels()) {
    SetDistanceKernelForTest(kernel);
    std::vector<Annotation> actual =
        AnnotateAll(snapshot.annotator(), queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(actual[i].unit, expected[i].unit)
          << "kernel " << static_cast<int>(kernel) << " at ("
          << queries[i].x << ", " << queries[i].y << ")";
      ASSERT_EQ(actual[i].bits, expected[i].bits)
          << "kernel " << static_cast<int>(kernel) << " at ("
          << queries[i].x << ", " << queries[i].y << ")";
    }
  }
}

TEST_F(BatchAnnotatorParityTest, ThreadedAnnotationIsByteIdentical) {
  // The annotator's scratch state is thread_local; four threads
  // annotating the same queries must produce exactly the single-thread
  // answers (and tsan holds the "no shared mutable state" claim).
  const CsdSnapshot& snapshot = **snapshot_;
  std::vector<Vec2> queries = QueryGrid();
  std::vector<Annotation> expected =
      AnnotateAll(snapshot.annotator(), queries);

  constexpr size_t kThreads = 4;
  std::vector<std::vector<Annotation>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t] = AnnotateAll(snapshot.annotator(), queries);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[t].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(per_thread[t][i] == expected[i])
          << "thread " << t << " query " << i;
    }
  }
}

}  // namespace
}  // namespace csd
