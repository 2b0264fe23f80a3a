// End-to-end behavior of ServeService's four endpoints over the K=1 store:
// preconditions on an unpublished store, rebuilds that publish new
// generations visible to later requests, pattern queries that pin their
// snapshot, and the net server's text response formats.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/net_server.h"
#include "serve/service.h"
#include "tests/serve_test_helpers.h"
#include "util/status.h"

namespace csd::serve {
namespace {

using serve::testing::K1Store;
using serve::testing::MakeTestDataset;
using serve::testing::MonolithicPlan;
using serve::testing::TestSnapshotOptions;

class ServeServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::shared_ptr<const ServeDataset>(MakeTestDataset());
    snapshot_ = new std::shared_ptr<CsdSnapshot>(
        std::make_shared<CsdSnapshot>(*dataset_, TestSnapshotOptions(),
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

std::shared_ptr<const ServeDataset>* ServeServiceTest::dataset_ = nullptr;
std::shared_ptr<CsdSnapshot>* ServeServiceTest::snapshot_ = nullptr;

TEST_F(ServeServiceTest, RequiresAPublishedSnapshot) {
  K1Store store(*dataset_);  // empty: version 0, Acquire() == nullptr
  ServeService service(&store, store.plan);

  auto annotate = service.AnnotateStayPoints(
      {StayPoint(Vec2{100.0, 100.0}, 0)});
  ASSERT_FALSE(annotate.ok());
  EXPECT_EQ(annotate.status().code(), StatusCode::kFailedPrecondition);

  auto query = service.QueryPatternsByUnit(0);
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kFailedPrecondition);

  // Rebuild-from-current-data has no data to re-run on...
  auto rebuild = service.TriggerRebuild();
  ASSERT_FALSE(rebuild.ok());
  EXPECT_EQ(rebuild.status().code(), StatusCode::kFailedPrecondition);

  // ...but an explicit dataset bootstraps an empty store to version 1.
  auto bootstrap = service.TriggerRebuild(*dataset_);
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status().ToString();
  RebuildResult published = std::move(bootstrap).value().get();
  EXPECT_EQ(published.version, 1u);
  EXPECT_GT(published.num_units, 0u);
  EXPECT_EQ(store.current_version(), 1u);
}

TEST_F(ServeServiceTest, AnnotatesJourneysAgainstTheCurrentSnapshot) {
  K1Store store(*snapshot_);
  ServeService service(&store, store.plan);

  TaxiJourney journey;
  journey.pickup = GpsPoint(Vec2{500.0, 500.0}, 8 * kSecondsPerHour);
  journey.dropoff = GpsPoint(Vec2{5000.0, 5000.0}, 9 * kSecondsPerHour);
  auto result = service.AnnotateJourney(journey);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  AnnotateResult annotated = std::move(result).value().get();
  EXPECT_EQ(annotated.snapshot_version, 1u);
  ASSERT_EQ(annotated.stays.size(), 2u);
  ASSERT_EQ(annotated.units.size(), 2u);
  EXPECT_EQ(annotated.stays[0].time, journey.pickup.time);
  EXPECT_EQ(annotated.stays[1].time, journey.dropoff.time);
}

TEST_F(ServeServiceTest, QueryPinsItsSnapshotAcrossAPublish) {
  K1Store store(*snapshot_);
  ServeService service(&store, store.plan);

  // Find a unit that actually anchors patterns.
  const CsdSnapshot& snapshot = **snapshot_;
  UnitId unit = kNoUnit;
  for (UnitId u = 0; u < snapshot.diagram().num_units(); ++u) {
    if (!snapshot.PatternsForUnit(u).empty()) {
      unit = u;
      break;
    }
  }
  ASSERT_NE(unit, kNoUnit) << "test snapshot anchored no patterns";

  auto result = service.QueryPatternsByUnit(unit);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PatternQueryResult query = std::move(result).value();
  EXPECT_EQ(query.snapshot_version, 1u);
  EXPECT_FALSE(query.pattern_ids.empty());

  // A rebuild publishing version 2 must not invalidate the held result:
  // its pattern_ids span points into the snapshot the result pins.
  auto rebuild = service.TriggerRebuild();
  ASSERT_TRUE(rebuild.ok()) << rebuild.status().ToString();
  EXPECT_EQ(std::move(rebuild).value().get().version, 2u);
  for (uint32_t id : query.pattern_ids) {
    EXPECT_LT(id, query.snapshot->patterns().size());
  }
  EXPECT_EQ(query.snapshot->version(), 1u);

  // New requests see the new generation.
  auto fresh = service.AnnotateStayPoints({StayPoint(Vec2{100.0, 100.0}, 0)});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(std::move(fresh).value().get().snapshot_version, 2u);
}

TEST(ServeProtocolTest, FormatsMachineParsableResponses) {
  std::vector<uint32_t> ids = {4, 9};
  PatternQueryResult query;
  query.snapshot_version = 3;
  query.unit = 7;
  query.pattern_ids = ids;
  EXPECT_EQ(FormatQueryResponse(query), "ok query v=3 unit=7 patterns=4,9");

  RebuildResult rebuilt;
  rebuilt.version = 2;
  rebuilt.num_units = 10;
  rebuilt.num_patterns = 4;
  rebuilt.seconds = 0.5;
  EXPECT_EQ(FormatRebuildResponse(rebuilt),
            "ok rebuild v=2 units=10 patterns=4 seconds=0.500");
}

}  // namespace
}  // namespace csd::serve
