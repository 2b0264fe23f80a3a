// Admission control and batching semantics of the serving layer: overload
// rejection is deterministic (not racy best-effort), shutdown completes
// every admitted request, and coalescing requests into batches changes
// latency only — results are byte-identical to running each request alone,
// at any parallelism.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "serve/service.h"
#include "tests/serve_test_helpers.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/status.h"

namespace csd::serve {
namespace {

using serve::testing::K1Store;
using serve::testing::MakeTestDataset;
using serve::testing::MonolithicPlan;
using serve::testing::TestSnapshotOptions;

std::vector<StayPoint> MakeStays(Rng& rng, size_t n) {
  std::vector<StayPoint> stays;
  stays.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stays.emplace_back(
        Vec2{rng.Uniform(0.0, 6000.0), rng.Uniform(0.0, 6000.0)},
        static_cast<Timestamp>(i) * kSecondsPerMinute);
  }
  return stays;
}

class ServeAdmissionTest : public ::testing::Test {
 protected:
  // One snapshot build for the whole suite; annotation tests don't need
  // mined patterns.
  static void SetUpTestSuite() {
    dataset_ = new std::shared_ptr<const ServeDataset>(MakeTestDataset());
    snapshot_ = new std::shared_ptr<CsdSnapshot>(
        std::make_shared<CsdSnapshot>(
            *dataset_, TestSnapshotOptions(/*mine_patterns=*/false),
            MonolithicPlan(*dataset_)));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete dataset_;
    snapshot_ = nullptr;
    dataset_ = nullptr;
  }

  static std::shared_ptr<const ServeDataset>* dataset_;
  static std::shared_ptr<CsdSnapshot>* snapshot_;
};

std::shared_ptr<const ServeDataset>* ServeAdmissionTest::dataset_ = nullptr;
std::shared_ptr<CsdSnapshot>* ServeAdmissionTest::snapshot_ = nullptr;

TEST_F(ServeAdmissionTest, SaturationRejectsDeterministically) {
  K1Store store(*snapshot_);
  ServeOptions options;
  options.limits.annotate = 4;
  options.start_paused = true;  // nothing dispatches: the queue only grows
  ServeService service(&store, store.plan, options);

  Rng rng(17);
  std::vector<std::future<AnnotateResult>> admitted;
  for (size_t i = 0; i < 4; ++i) {
    auto result = service.AnnotateStayPoints(MakeStays(rng, 2));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    admitted.push_back(std::move(result).value());
  }
  // With the dispatcher paused the budget is exactly consumed: the
  // limit+1-th request must be shed, every time, with an explicit status.
  auto overflow = service.AnnotateStayPoints(MakeStays(rng, 2));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.admission().Admitted(RequestClass::kAnnotate), 4u);
  EXPECT_EQ(service.admission().Rejected(RequestClass::kAnnotate), 1u);
  EXPECT_EQ(service.QueueDepth(), 4u);

  // Resume: the queued work completes and frees budget for new requests.
  service.SetPausedForTest(false);
  for (auto& future : admitted) {
    AnnotateResult result = future.get();
    EXPECT_EQ(result.snapshot_version, 1u);
    EXPECT_EQ(result.units.size(), 2u);
  }
  auto after = service.AnnotateStayPoints(MakeStays(rng, 1));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(std::move(after).value().get().units.size(), 1u);
}

TEST_F(ServeAdmissionTest, ShutdownDrainsEveryAdmittedRequest) {
  K1Store store(*snapshot_);
  ServeOptions options;
  options.start_paused = true;
  ServeService service(&store, store.plan, options);

  Rng rng(23);
  std::vector<std::future<AnnotateResult>> admitted;
  for (size_t i = 0; i < 8; ++i) {
    auto result = service.AnnotateStayPoints(MakeStays(rng, 1 + i % 3));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    admitted.push_back(std::move(result).value());
  }

  // Shutdown's contract: admitted work completes even though dispatch was
  // paused the whole time; only *new* work is turned away.
  service.Shutdown();
  for (size_t i = 0; i < admitted.size(); ++i) {
    AnnotateResult result = admitted[i].get();
    EXPECT_EQ(result.snapshot_version, 1u);
    EXPECT_EQ(result.units.size(), 1 + i % 3);
  }
  EXPECT_EQ(service.QueueDepth(), 0u);

  auto rejected = service.AnnotateStayPoints(MakeStays(rng, 1));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(service.admission().closed());
}

// Coalescing must be invisible in the results: a request annotated inside
// a shared batch (snapshot acquired once, slots sorted by grid cell,
// fanned out on the pool) yields byte-for-byte what the bare kernel
// produces for the same stays — at single-threaded and multi-threaded
// batch execution alike. This is what makes batching purely a
// throughput/latency knob.
TEST_F(ServeAdmissionTest, BatchedResultsMatchUnbatchedKernel) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SetDefaultParallelism(threads);

    K1Store store(*snapshot_);
    ServeOptions options;
    options.start_paused = true;  // force everything into one big batch
    ServeService service(&store, store.plan, options);

    Rng rng(4242);  // same seed per parallelism level → same inputs
    std::vector<std::vector<StayPoint>> inputs;
    std::vector<std::future<AnnotateResult>> futures;
    for (size_t i = 0; i < 40; ++i) {
      inputs.push_back(MakeStays(rng, 1 + i % 4));
      auto result = service.AnnotateStayPoints(inputs.back());
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      futures.push_back(std::move(result).value());
    }
    service.SetPausedForTest(false);

    const CsdSnapshot& snapshot = **snapshot_;
    for (size_t i = 0; i < inputs.size(); ++i) {
      AnnotateResult result = futures[i].get();
      ASSERT_EQ(result.stays.size(), inputs[i].size());
      ASSERT_EQ(result.units.size(), inputs[i].size());
      for (size_t s = 0; s < inputs[i].size(); ++s) {
        UnitId expected_unit = kNoUnit;
        SemanticProperty expected_sem = snapshot.recognizer().RecognizeWithUnit(
            inputs[i][s].position, &expected_unit);
        EXPECT_EQ(result.units[s], expected_unit)
            << "request " << i << " stay " << s;
        EXPECT_EQ(result.stays[s].semantic.bits(), expected_sem.bits())
            << "request " << i << " stay " << s;
      }
    }
  }
  SetDefaultParallelism(0);  // restore the environment default
}

}  // namespace
}  // namespace csd::serve
