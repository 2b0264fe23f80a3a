// The serving path end to end: one shared version counter across the
// global and per-shard lanes, geo-routed annotation byte-identical to the
// voting recognizer at K=4 and at K=1 (the monolithic deployment),
// straddling batches fanned out and reassembled in
// request order, per-shard rebuilds publishing exactly one lane with the
// bytes of a from-scratch build of the tile (also when the lane reuses its
// cached tile cut across generations) — and the
// isolation claim the whole design exists for: a shard whose rebuild lane
// is stuck (driven by the serve/rebuild failpoint) never blocks
// annotation routed to any other shard.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/city_semantic_diagram.h"
#include "core/popularity.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "shard/shard_plan.h"
#include "shard/sharded_build.h"
#include "tests/serve_test_helpers.h"
#include "util/failpoint.h"

namespace csd::serve {
namespace {

using serve::testing::MakeTestDataset;
using serve::testing::MonolithicPlan;
using serve::testing::SerializeDiagram;
using serve::testing::TestSnapshotOptions;

constexpr auto kResolveBound = std::chrono::seconds(30);
constexpr size_t kShards = 4;

/// Everything one sharded-service test needs, built once per fixture:
/// the dataset, a 2×2 plan, the plan-mode snapshot, and the service.
class ShardedServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Get().DisarmAll();
    dataset_ = MakeTestDataset();
    options_ = TestSnapshotOptions();
    plan_ = std::make_unique<shard::ShardPlan>(shard::PlanForCity(
        dataset_->pois, kShards, options_.miner.csd));
    store_ = std::make_unique<ShardedSnapshotStore>(plan_->num_shards());
    store_->PublishAll(
        std::make_shared<CsdSnapshot>(dataset_, options_, *plan_));
    ServeOptions serve_options;
    serve_options.snapshot = options_;
    service_ = std::make_unique<ServeService>(store_.get(), *plan_,
                                              serve_options);
  }

  void TearDown() override {
    service_->Shutdown();
    FailpointRegistry::Get().DisarmAll();
  }

  /// A stay placed at the center of shard `s`'s tile — guaranteed to be
  /// routed to that shard's lane.
  StayPoint StayInShard(size_t s) const {
    BoundingBox tile = plan_->TileBounds(s);
    StayPoint stay({(tile.min.x + tile.max.x) / 2.0,
                    (tile.min.y + tile.max.y) / 2.0},
                   0);
    EXPECT_EQ(plan_->ShardOf(stay.position), s);
    return stay;
  }

  AnnotateResult Annotate(std::vector<StayPoint> stays) {
    return AnnotateWith(*service_, std::move(stays));
  }

  static AnnotateResult AnnotateWith(ServeService& service,
                                     std::vector<StayPoint> stays) {
    auto future_or = service.AnnotateStayPoints(std::move(stays));
    EXPECT_TRUE(future_or.ok()) << future_or.status().message();
    std::future<AnnotateResult> future = std::move(future_or).value();
    EXPECT_EQ(future.wait_for(kResolveBound), std::future_status::ready);
    return future.get();
  }

  /// Real stays from the dataset, batched as a client would: every batch
  /// crosses tiles whenever the underlying journeys do. Each answer must
  /// equal the scalar voting recognizer of a monolithic snapshot of the
  /// same dataset — the reference oracle, not another serving path.
  void ExpectMatchesRecognizerOracle(ServeService& service) {
    const CsdSnapshot oracle(dataset_, options_, MonolithicPlan(dataset_));
    const size_t kBatch = 8;
    size_t compared = 0;
    for (size_t base = 0; base + kBatch <= dataset_->stays.size() &&
                          compared < 400;
         base += kBatch) {
      std::vector<StayPoint> stays(dataset_->stays.begin() + base,
                                   dataset_->stays.begin() + base + kBatch);
      AnnotateResult got = AnnotateWith(service, stays);
      ASSERT_TRUE(got.status.ok());
      ASSERT_EQ(got.stays.size(), stays.size());
      ASSERT_EQ(got.units.size(), stays.size());
      for (size_t i = 0; i < stays.size(); ++i) {
        UnitId unit = kNoUnit;
        SemanticProperty semantic =
            oracle.recognizer().RecognizeWithUnit(stays[i].position, &unit);
        ASSERT_EQ(got.units[i], unit) << "batch at " << base << ", stay " << i;
        ASSERT_EQ(got.stays[i].semantic, semantic)
            << "batch at " << base << ", stay " << i;
      }
      compared += kBatch;
    }
    ASSERT_GT(compared, 100u);
  }

  std::shared_ptr<const ServeDataset> dataset_;
  SnapshotOptions options_;
  std::unique_ptr<shard::ShardPlan> plan_;
  std::unique_ptr<ShardedSnapshotStore> store_;
  std::unique_ptr<ServeService> service_;
};

TEST(ShardedSnapshotStoreTest, LanesShareOneMonotonicVersionCounter) {
  auto dataset = MakeTestDataset();
  auto options = TestSnapshotOptions(/*mine_patterns=*/false);
  shard::ShardPlan plan =
      shard::PlanForCity(dataset->pois, kShards, options.miner.csd);

  ShardedSnapshotStore store(plan.num_shards());
  EXPECT_EQ(store.num_shards(), kShards);
  EXPECT_EQ(store.current_version(), 0u);
  EXPECT_EQ(store.Acquire(), nullptr);

  // PublishAll seeds every lane with the same stamped generation.
  auto full = std::make_shared<CsdSnapshot>(dataset, options, plan);
  EXPECT_EQ(store.PublishAll(full), 1u);
  EXPECT_EQ(store.current_version(), 1u);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    EXPECT_EQ(store.shard_version(s), 1u);
    EXPECT_EQ(store.AcquireShard(s).get(), full.get());
  }

  // PublishShard bumps the shared counter but replaces one lane only.
  auto tile_data = MakeShardDataset(*dataset, plan, 2);
  auto tile = std::make_shared<CsdSnapshot>(tile_data, options,
                                            MonolithicPlan(tile_data));
  EXPECT_EQ(store.PublishShard(2, tile), 2u);
  EXPECT_EQ(store.shard_version(2), 2u);
  EXPECT_EQ(store.AcquireShard(2).get(), tile.get());
  EXPECT_EQ(store.current_version(), 1u) << "global lane must be untouched";
  for (size_t s : {size_t{0}, size_t{1}, size_t{3}}) {
    EXPECT_EQ(store.shard_version(s), 1u);
    EXPECT_EQ(store.AcquireShard(s).get(), full.get());
  }
}

TEST_F(ShardedServeTest, GeoRoutedAnnotationMatchesMonolithicService) {
  ExpectMatchesRecognizerOracle(*service_);
}

TEST_F(ShardedServeTest, K1ServiceMatchesRecognizerOracle) {
  // K=1 is the monolithic deployment: one shard lane, the same geo-routed
  // path, and a plan-mode snapshot built by the monolithic stage pass.
  shard::ShardPlan plan =
      shard::PlanForCity(dataset_->pois, 1, options_.miner.csd);
  ShardedSnapshotStore store(plan.num_shards());
  store.PublishAll(std::make_shared<CsdSnapshot>(dataset_, options_, plan));
  ServeOptions serve_options;
  serve_options.snapshot = options_;
  ServeService service(&store, plan, serve_options);
  ExpectMatchesRecognizerOracle(service);

  // A full rebuild republishes a K=1 plan-mode snapshot whose one shard
  // annotates through the city-wide annotator (no second full-city grid).
  auto rebuild_or = service.TriggerRebuild();
  ASSERT_TRUE(rebuild_or.ok()) << rebuild_or.status().message();
  RebuildResult rebuilt = std::move(rebuild_or).value().get();
  ASSERT_TRUE(rebuilt.status.ok()) << rebuilt.status.message();
  std::shared_ptr<const CsdSnapshot> snapshot = store.Acquire();
  ASSERT_EQ(snapshot->version(), rebuilt.version);
  ASSERT_NE(snapshot->plan(), nullptr);
  EXPECT_EQ(&snapshot->annotator_for_shard(0), &snapshot->annotator());
  EXPECT_EQ(store.AcquireShard(0), snapshot);
  ExpectMatchesRecognizerOracle(service);
  service.Shutdown();
}

TEST_F(ShardedServeTest, StraddlingBatchFansOutAndPreservesRequestOrder) {
  // One request touching all four tiles, in deliberately shuffled shard
  // order: results must land in request order regardless of routing.
  std::vector<StayPoint> stays = {StayInShard(2), StayInShard(0),
                                  StayInShard(3), StayInShard(1),
                                  StayInShard(2), StayInShard(0)};
  std::set<size_t> touched;
  for (const StayPoint& stay : stays) {
    touched.insert(plan_->ShardOf(stay.position));
  }
  ASSERT_EQ(touched.size(), kShards);

  AnnotateResult result = Annotate(stays);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.units.size(), stays.size());
  ASSERT_EQ(result.stays.size(), stays.size());
  // Slot i answers stay i: positions come back in submission order.
  for (size_t i = 0; i < stays.size(); ++i) {
    EXPECT_EQ(result.stays[i].position.x, stays[i].position.x);
    EXPECT_EQ(result.stays[i].position.y, stays[i].position.y);
  }
  // Same duplicate stays, same answers.
  EXPECT_EQ(result.units[0], result.units[4]);
  EXPECT_EQ(result.units[1], result.units[5]);
  EXPECT_EQ(result.snapshot_version, 1u);
}

TEST_F(ShardedServeTest, ShardRebuildPublishesExactlyOneLane) {
  auto future_or = service_->TriggerShardRebuild(1);
  ASSERT_TRUE(future_or.ok()) << future_or.status().message();
  std::future<RebuildResult> future = std::move(future_or).value();
  ASSERT_EQ(future.wait_for(kResolveBound), std::future_status::ready);
  RebuildResult result = future.get();
  ASSERT_TRUE(result.status.ok()) << result.status.message();
  EXPECT_EQ(result.version, 2u);
  EXPECT_GT(result.num_units, 0u);

  EXPECT_EQ(store_->shard_version(1), 2u);
  EXPECT_EQ(store_->current_version(), 1u);
  for (size_t s : {size_t{0}, size_t{2}, size_t{3}}) {
    EXPECT_EQ(store_->shard_version(s), 1u);
  }

  // A batch routed entirely to the rebuilt shard reports the new lane's
  // version; one routed elsewhere still reports the old generation.
  EXPECT_EQ(Annotate({StayInShard(1)}).snapshot_version, 2u);
  EXPECT_EQ(Annotate({StayInShard(3)}).snapshot_version, 1u);

  // An out-of-range shard is rejected up front.
  EXPECT_FALSE(service_->TriggerShardRebuild(kShards).ok());
}

TEST_F(ShardedServeTest, ShardRebuildMatchesDirectTileBuild) {
  // A shard lane cuts the tile, absorbs it into its in-tile engine and
  // adopts the engine's diagram. That must be the diagram a from-scratch
  // build of the same tile cut gives — with decay off, and with decay on
  // against a generation that pins its decay instant the way a streamed
  // generation does.
  for (double half_life_s : {0.0, 3600.0}) {
    SCOPED_TRACE(half_life_s);
    SnapshotOptions options = options_;
    options.miner.csd.decay.half_life_s = half_life_s;
    Timestamp as_of =
        half_life_s > 0.0 ? ResolveDecayAsOf(dataset_->stays) + 3600 : 0;
    auto data = std::make_shared<const ServeDataset>(
        dataset_->pois.pois(), dataset_->stays, dataset_->trajectories,
        as_of);
    ShardedSnapshotStore store(plan_->num_shards());
    store.PublishAll(std::make_shared<CsdSnapshot>(data, options, *plan_));
    ServeOptions serve_options;
    serve_options.snapshot = options;
    ServeService service(&store, *plan_, serve_options);

    for (size_t s = 0; s < kShards; ++s) {
      std::shared_ptr<const ServeDataset> tile =
          MakeShardDataset(*data, *plan_, s);
      CsdBuildOptions build = options.miner.csd;
      if (build.decay.enabled()) build.decay.as_of = tile->decay_as_of;
      std::string tag = std::to_string(s) + "_" +
                        std::to_string(static_cast<int>(half_life_s));
      std::string direct = SerializeDiagram(
          CsdBuilder(build).Build(tile->pois, tile->stays), "direct" + tag);

      // The first rebuild re-stages the tile; a second over the same
      // generation absorbs an empty delta. Both land on the same bytes.
      for (bool expect_in_tile : {false, true}) {
        auto future_or = service.TriggerShardRebuild(s);
        ASSERT_TRUE(future_or.ok()) << future_or.status().message();
        RebuildResult result = std::move(future_or).value().get();
        ASSERT_TRUE(result.status.ok()) << result.status.message();
        EXPECT_EQ(result.in_tile, expect_in_tile);
        EXPECT_EQ(SerializeDiagram(store.AcquireShard(s)->diagram(),
                                   "lane" + tag),
                  direct)
            << "shard " << s << (expect_in_tile ? " absorb" : " first");
      }
    }
    service.Shutdown();
  }
}

TEST_F(ShardedServeTest, CachedTileCutMatchesFreshCutAcrossTicks) {
  // Generations that share one city POI database let each lane keep its
  // tile POI database and re-filter only the evidence. Every tick must
  // still publish the bytes a from-scratch build over an uncached cut of
  // the same generation gives, and a generation over a different city
  // database must re-cut the tile.
  auto rebuild = [](ServeService& service, size_t s,
                    std::shared_ptr<const ServeDataset> data) {
    auto future_or = service.TriggerShardRebuild(s, std::move(data));
    EXPECT_TRUE(future_or.ok()) << future_or.status().message();
    return std::move(future_or).value().get();
  };
  for (double half_life_s : {0.0, 3600.0}) {
    SCOPED_TRACE(half_life_s);
    SnapshotOptions options = options_;
    options.miner.csd.decay.half_life_s = half_life_s;
    ShardedSnapshotStore store(plan_->num_shards());
    store.PublishAll(
        std::make_shared<CsdSnapshot>(dataset_, options, *plan_));
    ServeOptions serve_options;
    serve_options.snapshot = options;
    ServeService service(&store, *plan_, serve_options);

    // Lane rebuild vs a direct build over a fresh cut of `data`.
    auto expect_matches_fresh_cut = [&](const ServeDataset& data, size_t s,
                                        const std::string& tag) {
      std::shared_ptr<const ServeDataset> fresh =
          MakeShardDataset(data, *plan_, s);
      CsdBuildOptions build = options.miner.csd;
      if (build.decay.enabled()) build.decay.as_of = fresh->decay_as_of;
      std::shared_ptr<const CsdSnapshot> lane = store.AcquireShard(s);
      EXPECT_EQ(lane->data().stays.size(), fresh->stays.size()) << tag;
      EXPECT_EQ(lane->data().trajectories.size(), fresh->trajectories.size())
          << tag;
      EXPECT_EQ(SerializeDiagram(lane->diagram(), "lane" + tag),
                SerializeDiagram(
                    CsdBuilder(build).Build(fresh->pois, fresh->stays),
                    "fresh" + tag))
          << tag;
    };

    // Three generations over the dataset's own POI database, each a
    // longer prefix of its stays. With decay on, the instants sit whole
    // half-lives apart, as a streamed generation's would under steady
    // traffic.
    const std::vector<StayPoint>& all = dataset_->stays;
    const Timestamp base_as_of = ResolveDecayAsOf(all);
    std::vector<std::shared_ptr<const PoiDatabase>> cut(kShards);
    std::vector<StayPoint> last_stays;
    Timestamp last_as_of = 0;
    for (size_t tick = 1; tick <= 3; ++tick) {
      last_stays.assign(all.begin(), all.begin() + all.size() * tick / 3);
      last_as_of = half_life_s > 0.0
                       ? base_as_of + static_cast<Timestamp>(tick) * 3600
                       : 0;
      auto generation = std::make_shared<const ServeDataset>(
          dataset_->poi_db, last_stays, dataset_->trajectories, last_as_of);
      for (size_t s = 0; s < kShards; ++s) {
        std::string tag = "_t" + std::to_string(tick) + "_s" +
                          std::to_string(s) + "_" +
                          std::to_string(static_cast<int>(half_life_s));
        RebuildResult result = rebuild(service, s, generation);
        ASSERT_TRUE(result.status.ok()) << result.status.message();
        if (tick == 1) {
          EXPECT_FALSE(result.in_tile) << tag;
        }
        expect_matches_fresh_cut(*generation, s, tag);
        // The lane's tile database is the one it cut on the first tick
        // (held here, so its address cannot be reused meanwhile).
        const ServeDataset& lane_data = store.AcquireShard(s)->data();
        if (tick == 1) {
          cut[s] = lane_data.poi_db;
        } else {
          EXPECT_EQ(&lane_data.pois, cut[s].get()) << tag;
        }
      }
    }

    // A different city database, one POI nudged 5 m inside shard 0's
    // tile: every lane re-cuts, and the lanes whose halo holds the moved
    // POI re-stage the tile instead of absorbing into stale structure.
    BoundingBox tile0 = plan_->TileBounds(0);
    const Vec2 center{(tile0.min.x + tile0.max.x) / 2.0,
                      (tile0.min.y + tile0.max.y) / 2.0};
    std::vector<Poi> moved = dataset_->pois.pois();
    Poi& nudged = moved[dataset_->pois.Nearest(center)];
    nudged.position.x += 5.0;
    const Vec2 nudged_at = nudged.position;
    auto moved_generation = std::make_shared<const ServeDataset>(
        std::move(moved), last_stays, dataset_->trajectories, last_as_of);
    size_t restaged = 0;
    for (size_t s = 0; s < kShards; ++s) {
      std::string tag = "_moved_s" + std::to_string(s) + "_" +
                        std::to_string(static_cast<int>(half_life_s));
      RebuildResult result = rebuild(service, s, moved_generation);
      ASSERT_TRUE(result.status.ok()) << result.status.message();
      EXPECT_NE(&store.AcquireShard(s)->data().pois, cut[s].get()) << tag;
      if (plan_->HaloBounds(s).Contains(nudged_at)) {
        EXPECT_FALSE(result.in_tile) << tag;
        ++restaged;
      }
      expect_matches_fresh_cut(*moved_generation, s, tag);
    }
    EXPECT_GE(restaged, 1u);
    service.Shutdown();
  }
}

TEST_F(ShardedServeTest, RebuildingShardNeverBlocksOtherShards) {
  // Pin shard 0's rebuild lane at the serve/rebuild failpoint for two
  // seconds (one trip: the annotation path never evaluates this point,
  // so the only consumer is the shard-0 rebuild we trigger next).
  constexpr auto kStall = std::chrono::seconds(2);
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/rebuild", "1*sleep(2000000)")
                  .ok());
  auto rebuild_or = service_->TriggerShardRebuild(0);
  ASSERT_TRUE(rebuild_or.ok());
  std::future<RebuildResult> rebuild = std::move(rebuild_or).value();

  // Annotation routed to the other shards completes while shard 0 is
  // still stalled — the lanes are genuinely independent.
  auto start = std::chrono::steady_clock::now();
  for (size_t s : {size_t{1}, size_t{2}, size_t{3}}) {
    AnnotateResult result = Annotate({StayInShard(s)});
    EXPECT_TRUE(result.status.ok()) << result.status.message();
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, kStall)
      << "annotation waited out the stalled rebuild lane";
  EXPECT_EQ(rebuild.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "shard 0's rebuild should still be sleeping at the failpoint";

  ASSERT_EQ(rebuild.wait_for(kResolveBound), std::future_status::ready);
  EXPECT_TRUE(rebuild.get().status.ok());
  EXPECT_EQ(store_->shard_version(0), 2u);
}

TEST_F(ShardedServeTest, FailedShardRebuildLeavesTheLaneServing) {
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/rebuild", "1*return(unavailable:injected)")
                  .ok());
  auto future_or = service_->TriggerShardRebuild(2);
  ASSERT_TRUE(future_or.ok());
  std::future<RebuildResult> future = std::move(future_or).value();
  ASSERT_EQ(future.wait_for(kResolveBound), std::future_status::ready);
  RebuildResult result = future.get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);

  // Graceful degradation, per lane: the last good generation keeps
  // serving and the version never moved.
  EXPECT_EQ(store_->shard_version(2), 1u);
  AnnotateResult annotated = Annotate({StayInShard(2)});
  EXPECT_TRUE(annotated.status.ok());
  EXPECT_EQ(annotated.snapshot_version, 1u);
}

TEST_F(ShardedServeTest, PatternQueriesRunAgainstTheGlobalLane) {
  // Find a unit that anchors at least one pattern in the global snapshot.
  std::shared_ptr<const CsdSnapshot> snapshot = store_->Acquire();
  ASSERT_NE(snapshot, nullptr);
  ASSERT_GT(snapshot->patterns().size(), 0u);
  UnitId unit = kNoUnit;
  for (UnitId u = 0; u < snapshot->diagram().num_units(); ++u) {
    if (!snapshot->PatternsForUnit(u).empty()) {
      unit = u;
      break;
    }
  }
  ASSERT_NE(unit, kNoUnit);

  auto result_or = service_->QueryPatternsByUnit(unit);
  ASSERT_TRUE(result_or.ok()) << result_or.status().message();
  EXPECT_EQ(result_or.value().unit, unit);
  EXPECT_FALSE(result_or.value().pattern_ids.empty());
  EXPECT_EQ(result_or.value().snapshot_version, 1u);
}

}  // namespace
}  // namespace csd::serve
