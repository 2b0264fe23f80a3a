// Fault injection and robustness: the failpoint registry itself, every
// planted failpoint in the tree (ingest I/O, frame parsing, batch
// execution, snapshot rebuild), deadline propagation, and the batcher's
// shutdown/pause edge cases. The invariant under test everywhere: a fault
// turns into a prompt, explicit non-OK Status — never a hang, a crash, or
// a silently dropped request — and the admission budget is returned
// wherever the request's life ends.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <span>

#include "io/binary_io.h"
#include "io/dataset_io.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/batcher.h"
#include "serve/frame.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "shard/shard_plan.h"
#include "shard/sharded_build.h"
#include "stream/stream_ingestor.h"
#include "stream/stream_metrics.h"
#include "synth/city_generator.h"
#include "synth/trip_generator.h"
#include "tests/serve_test_helpers.h"
#include "traj/stay_point_detector.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/status.h"

namespace csd {
namespace {

using serve::AnnotateRequest;
using serve::AnnotateResult;
using serve::kNoDeadline;
using serve::RequestBatcher;
using serve::testing::K1Store;
using serve::testing::MakeTestDataset;
using serve::testing::MonolithicPlan;
using serve::testing::TestSnapshotOptions;

constexpr auto kResolveBound = std::chrono::seconds(10);

/// Every test starts and ends with a clean registry: failpoints are
/// process-global, so leaking an armed point would poison later tests.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Get().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Get().DisarmAll(); }
};

// --- Registry semantics ---------------------------------------------------

using FailpointRegistryTest = FailpointTest;

TEST_F(FailpointRegistryTest, ArmInjectsAndDisarmRestores) {
  auto& registry = FailpointRegistry::Get();
  EXPECT_FALSE(registry.armed());
  EXPECT_TRUE(registry.Evaluate("test/point").ok());

  ASSERT_TRUE(registry.Arm("test/point", "return(unavailable:boom)").ok());
  EXPECT_TRUE(registry.armed());
  Status injected = registry.Evaluate("test/point");
  EXPECT_EQ(injected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(injected.message(), "boom");
  // Other names pass through untouched.
  EXPECT_TRUE(registry.Evaluate("test/other").ok());
  EXPECT_EQ(registry.Hits("test/point"), 1u);
  EXPECT_EQ(registry.Trips("test/point"), 1u);

  registry.Disarm("test/point");
  EXPECT_FALSE(registry.armed());
  EXPECT_TRUE(registry.Evaluate("test/point").ok());
}

TEST_F(FailpointRegistryTest, SpecGrammarParses) {
  auto& registry = FailpointRegistry::Get();
  // Every form the header documents arms without error.
  EXPECT_TRUE(registry.Arm("g/1", "return(ioerror)").ok());
  EXPECT_TRUE(registry.Arm("g/2", "sleep(100)").ok());
  EXPECT_TRUE(registry.Arm("g/3", "50%return(parseerror:half)").ok());
  EXPECT_TRUE(registry.Arm("g/4", "3*return(unavailable)").ok());
  EXPECT_TRUE(registry.Arm("g/5", "sleep(50)+return(internal)").ok());
  EXPECT_TRUE(registry.Arm("g/6", "25%2*return(deadlineexceeded)").ok());

  // The combined sleep+return injects the error after the latency.
  Status combined = registry.Evaluate("g/5");
  EXPECT_EQ(combined.code(), StatusCode::kInternal);
}

TEST_F(FailpointRegistryTest, MalformedSpecsAreRejected) {
  auto& registry = FailpointRegistry::Get();
  for (const char* bad :
       {"", "return", "return()", "return(bogus)", "return(ok)",
        "explode(now)", "sleep(-5)", "sleep(x)", "150%return(ioerror)",
        "0*return(ioerror)", "return(ioerror)return(ioerror)"}) {
    Status s = registry.Arm("bad/spec", bad);
    EXPECT_FALSE(s.ok()) << "spec '" << bad << "' should not parse";
    EXPECT_EQ(s.code(), StatusCode::kParseError) << bad;
  }
  // Nothing got armed by the failed attempts.
  EXPECT_FALSE(registry.armed());
  EXPECT_TRUE(registry.Evaluate("bad/spec").ok());
}

TEST_F(FailpointRegistryTest, TripLimitSpendsThePoint) {
  auto& registry = FailpointRegistry::Get();
  ASSERT_TRUE(registry.Arm("limited/point", "2*return(ioerror)").ok());
  EXPECT_FALSE(registry.Evaluate("limited/point").ok());
  EXPECT_FALSE(registry.Evaluate("limited/point").ok());
  // Spent: passes from here on, but keeps counting hits.
  EXPECT_TRUE(registry.Evaluate("limited/point").ok());
  EXPECT_TRUE(registry.Evaluate("limited/point").ok());
  EXPECT_EQ(registry.Trips("limited/point"), 2u);
  EXPECT_EQ(registry.Hits("limited/point"), 4u);
}

TEST_F(FailpointRegistryTest, SeededProbabilityReplaysExactly) {
  auto& registry = FailpointRegistry::Get();
  auto run = [&registry]() {
    registry.SetSeed(0xC0FFEE);
    EXPECT_TRUE(registry.Arm("prob/point", "50%return(unavailable)").ok());
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) {
      pattern.push_back(!registry.Evaluate("prob/point").ok());
    }
    registry.Disarm("prob/point");  // resets the hit counter for the replay
    return pattern;
  };
  std::vector<bool> first = run();
  std::vector<bool> second = run();
  EXPECT_EQ(first, second);

  // Sanity on the gate itself: 64 hits at 50% trip some but not all.
  size_t trips = 0;
  for (bool tripped : first) trips += tripped ? 1 : 0;
  EXPECT_GT(trips, 0u);
  EXPECT_LT(trips, 64u);

  // A different seed decorrelates.
  registry.SetSeed(0xDECAF);
  EXPECT_TRUE(registry.Arm("prob/point", "50%return(unavailable)").ok());
  std::vector<bool> reseeded;
  for (int i = 0; i < 64; ++i) {
    reseeded.push_back(!registry.Evaluate("prob/point").ok());
  }
  EXPECT_NE(first, reseeded);
}

TEST_F(FailpointRegistryTest, LatencyOnlyFailpointSleepsAndPasses) {
  auto& registry = FailpointRegistry::Get();
  ASSERT_TRUE(registry.Arm("slow/point", "sleep(20000)").ok());
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(registry.Evaluate("slow/point").ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(15));
  EXPECT_EQ(registry.Trips("slow/point"), 1u);
}

TEST_F(FailpointRegistryTest, ArmFromListArmsEveryEntry) {
  auto& registry = FailpointRegistry::Get();
  ASSERT_TRUE(registry
                  .ArmFromList("list/a=return(ioerror); "
                               "list/b=sleep(10)+return(internal)")
                  .ok());
  EXPECT_EQ(registry.Evaluate("list/a").code(), StatusCode::kIoError);
  EXPECT_EQ(registry.Evaluate("list/b").code(), StatusCode::kInternal);

  EXPECT_FALSE(registry.ArmFromList("no-equals-sign").ok());
  EXPECT_FALSE(registry.ArmFromList("list/c=explode()").ok());
}

// --- Planted ingest failpoints -------------------------------------------

class IngestFailpointTest : public FailpointTest {
 protected:
  void SetUp() override {
    FailpointTest::SetUp();
    dir_ = std::filesystem::temp_directory_path() /
           ("csd_fault_injection_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    FailpointTest::TearDown();
  }

  std::string Path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IngestFailpointTest, EveryIngestReaderIsInjectable) {
  // Real files on disk, so the only failure is the injected one.
  std::vector<Poi> pois = {{1, {10.0, 20.0}, 0}};
  std::vector<TaxiJourney> journeys(1);
  journeys[0].pickup = GpsPoint({0.0, 0.0}, 100);
  journeys[0].dropoff = GpsPoint({50.0, 0.0}, 700);
  ASSERT_TRUE(WritePoisCsv(Path("pois.csv"), pois).ok());
  ASSERT_TRUE(WriteJourneysCsv(Path("trips.csv"), journeys).ok());
  ASSERT_TRUE(WriteJourneysBinary(Path("trips.bin"), journeys).ok());

  auto& registry = FailpointRegistry::Get();
  struct Site {
    const char* failpoint;
    std::function<Status()> read;
  };
  const std::vector<Site> sites = {
      {"io/read_pois_csv",
       [&] { return ReadPoisCsv(Path("pois.csv")).status(); }},
      {"io/read_journeys_csv",
       [&] { return ReadJourneysCsv(Path("trips.csv")).status(); }},
      {"io/read_journeys_binary",
       [&] { return ReadJourneysBinary(Path("trips.bin")).status(); }},
  };
  for (const Site& site : sites) {
    SCOPED_TRACE(site.failpoint);
    EXPECT_TRUE(site.read().ok());  // healthy before arming
    ASSERT_TRUE(registry.Arm(site.failpoint, "return(ioerror:chaos)").ok());
    Status injected = site.read();
    EXPECT_EQ(injected.code(), StatusCode::kIoError);
    EXPECT_EQ(injected.message(), "chaos");
    registry.Disarm(site.failpoint);
    EXPECT_TRUE(site.read().ok());  // healthy after disarming
  }
}

// --- Planted frame-parse failpoint ---------------------------------------

TEST_F(FailpointTest, ProtocolParseIsInjectable) {
  // The parse site is frame decode on a live server: an armed trip
  // answers that one frame with an error carrying its request_id, and the
  // connection keeps serving.
  auto dataset = MakeTestDataset();
  K1Store store(std::make_shared<serve::CsdSnapshot>(
      dataset, TestSnapshotOptions(/*mine_patterns=*/false),
      MonolithicPlan(dataset)));
  serve::ServeService service(&store, store.plan);
  auto server = serve::NetServer::Start(&service, serve::NetServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  auto client_or =
      serve::NetClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client_or.ok()) << client_or.status();
  std::unique_ptr<serve::NetClient> client = std::move(client_or).value();
  auto stats = [&client](uint32_t request_id) {
    std::vector<uint8_t> bytes;
    serve::AppendStatsRequest(request_id, &bytes);
    EXPECT_TRUE(client->Send(bytes).ok());
    Result<serve::NetResponse> response = client->ReadResponse();
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? response.value() : serve::NetResponse{};
  };

  EXPECT_EQ(stats(1).type, serve::FrameType::kTextResp);
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/parse", "return(parseerror:fuzzed)")
                  .ok());
  serve::NetResponse injected = stats(2);
  EXPECT_EQ(injected.type, serve::FrameType::kErrorResp);
  EXPECT_EQ(injected.request_id, 2u);
  EXPECT_EQ(injected.code, StatusCode::kParseError);
  FailpointRegistry::Get().DisarmAll();
  serve::NetResponse healthy = stats(3);
  EXPECT_EQ(healthy.type, serve::FrameType::kTextResp);
  EXPECT_EQ(healthy.request_id, 3u);

  server.value()->Shutdown();
  service.Shutdown();
}

// --- Serving-layer chaos --------------------------------------------------

class ServeFaultTest : public FailpointTest {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::shared_ptr<const serve::ServeDataset>(
        MakeTestDataset());
    snapshot_ = new std::shared_ptr<serve::CsdSnapshot>(
        std::make_shared<serve::CsdSnapshot>(
            *dataset_, TestSnapshotOptions(/*mine_patterns=*/false),
            MonolithicPlan(*dataset_)));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete dataset_;
    snapshot_ = nullptr;
    dataset_ = nullptr;
  }

  static std::vector<StayPoint> MakeStays(Rng& rng, size_t n) {
    std::vector<StayPoint> stays;
    stays.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      stays.emplace_back(
          Vec2{rng.Uniform(0.0, 6000.0), rng.Uniform(0.0, 6000.0)},
          static_cast<Timestamp>(i) * kSecondsPerMinute);
    }
    return stays;
  }

  static std::shared_ptr<const serve::ServeDataset>* dataset_;
  static std::shared_ptr<serve::CsdSnapshot>* snapshot_;
};

std::shared_ptr<const serve::ServeDataset>* ServeFaultTest::dataset_ =
    nullptr;
std::shared_ptr<serve::CsdSnapshot>* ServeFaultTest::snapshot_ = nullptr;

TEST_F(ServeFaultTest, ExecuteBatchFaultFailsRequestsExplicitly) {
  K1Store store(*snapshot_);
  serve::ServeService service(&store, store.plan);
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/execute_batch", "return(unavailable:chaos)")
                  .ok());

  Rng rng(31);
  auto future_or = service.AnnotateStayPoints(MakeStays(rng, 3));
  ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
  std::future<AnnotateResult> future = std::move(future_or).value();
  ASSERT_EQ(future.wait_for(kResolveBound), std::future_status::ready)
      << "injected batch fault must resolve the future, not strand it";
  AnnotateResult result = future.get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.stays.size(), 3u);  // input handed back unannotated
  EXPECT_EQ(result.units.size(), 3u);
  for (UnitId unit : result.units) EXPECT_EQ(unit, kNoUnit);

  // The failed request released its admission slot, and recovery is
  // immediate once the fault clears.
  FailpointRegistry::Get().DisarmAll();
  auto healthy = service.AnnotateStayPoints(MakeStays(rng, 2));
  ASSERT_TRUE(healthy.ok());
  AnnotateResult ok = std::move(healthy).value().get();
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.snapshot_version, 1u);
}

TEST_F(ServeFaultTest, FailedRebuildKeepsServingLastGoodSnapshot) {
  K1Store store(*snapshot_);
  serve::ServeOptions options;
  options.snapshot = TestSnapshotOptions(/*mine_patterns=*/false);
  serve::ServeService service(&store, store.plan, options);
  uint64_t version_before = store.current_version();
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/rebuild", "return(unavailable:rebuild chaos)")
                  .ok());

  auto rebuild_or = service.TriggerRebuild(*dataset_);
  ASSERT_TRUE(rebuild_or.ok()) << rebuild_or.status().ToString();
  auto rebuild_future = std::move(rebuild_or).value();
  ASSERT_EQ(rebuild_future.wait_for(kResolveBound),
            std::future_status::ready)
      << "failed rebuild must report through the future, not hang";
  serve::RebuildResult failed = rebuild_future.get();
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);

  // Graceful degradation: nothing was published and annotation still
  // works against the previous generation.
  EXPECT_EQ(store.current_version(), version_before);
  Rng rng(37);
  auto annotate_or = service.AnnotateStayPoints(MakeStays(rng, 2));
  ASSERT_TRUE(annotate_or.ok());
  AnnotateResult annotated = std::move(annotate_or).value().get();
  EXPECT_TRUE(annotated.status.ok());
  EXPECT_EQ(annotated.snapshot_version, version_before);

  // The failed rebuild released its admission slot: the next trigger is
  // admitted and publishes.
  FailpointRegistry::Get().DisarmAll();
  auto retry_or = service.TriggerRebuild(*dataset_);
  ASSERT_TRUE(retry_or.ok()) << retry_or.status().ToString();
  serve::RebuildResult rebuilt = std::move(retry_or).value().get();
  EXPECT_TRUE(rebuilt.status.ok());
  EXPECT_EQ(rebuilt.version, version_before + 1);
  EXPECT_EQ(store.current_version(), version_before + 1);
}

TEST_F(ServeFaultTest, ChaosSweepNeverHangsOrDropsSilently) {
  K1Store store(*snapshot_);
  serve::ServeOptions options;
  options.batch.max_batch = 1;  // every request is its own batch
  serve::ServeService service(&store, store.plan, options);
  FailpointRegistry::Get().SetSeed(0xBADD1E);
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/execute_batch", "50%return(unavailable)")
                  .ok());

  Rng rng(41);
  std::vector<std::future<AnnotateResult>> futures;
  for (size_t i = 0; i < 64; ++i) {
    auto future_or = service.AnnotateStayPoints(MakeStays(rng, 1 + i % 3));
    ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
    futures.push_back(std::move(future_or).value());
  }

  size_t ok_count = 0, failed_count = 0;
  for (std::future<AnnotateResult>& future : futures) {
    ASSERT_EQ(future.wait_for(kResolveBound), std::future_status::ready)
        << "every request under chaos must complete with a verdict";
    AnnotateResult result = future.get();
    if (result.status.ok()) {
      EXPECT_GT(result.snapshot_version, 0u);
      ok_count++;
    } else {
      EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
      failed_count++;
    }
    EXPECT_EQ(result.units.size(), result.stays.size());
  }
  // The 50% gate is deterministic per seed, and both outcomes occur.
  EXPECT_GT(ok_count, 0u);
  EXPECT_GT(failed_count, 0u);
  EXPECT_EQ(ok_count + failed_count, futures.size());

  // Budget accounting survived the sweep: the full annotate budget is
  // available again once the faults clear.
  FailpointRegistry::Get().DisarmAll();
  auto after = service.AnnotateStayPoints(MakeStays(rng, 1));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(std::move(after).value().get().status.ok());
}

// --- Streaming-ingest chaos -----------------------------------------------

/// Chaos for the streaming layer (src/stream): an injected `serve/ingest`
/// fault must reject the batch before any state changes (a retried frame
/// is never double-counted), and a `serve/rebuild` fault during a publish
/// tick must leave every lane serving its last good snapshot with the
/// pending delta fully restored for the retry — a fault is never a lost
/// delta.
class StreamChaosTest : public FailpointTest {
 protected:
  static void SetUpTestSuite() {
    CityConfig city_config;
    city_config.num_pois = 800;
    city_config.width_m = 4000.0;
    city_config.height_m = 4000.0;
    city_config.seed = 11;
    city_ = new SyntheticCity(GenerateCity(city_config));
    TripConfig trip_config;
    trip_config.num_agents = 120;
    trip_config.num_days = 1;
    trip_config.seed = 17;
    TripDataset trips = GenerateTrips(*city_, trip_config);
    bootstrap_ = new std::shared_ptr<const serve::ServeDataset>(
        serve::MakeServeDataset(city_->pois, trips.journeys));
  }
  static void TearDownTestSuite() {
    delete bootstrap_;
    delete city_;
    bootstrap_ = nullptr;
    city_ = nullptr;
  }

  struct Rig {
    shard::ShardPlan plan;
    std::unique_ptr<serve::ShardedSnapshotStore> store;
    std::unique_ptr<serve::ServeService> service;
    std::unique_ptr<stream::StreamIngestor> ingestor;
    uint64_t bootstrap_version = 0;
  };

  static Rig MakeRig(size_t shards) {
    auto options = TestSnapshotOptions(/*mine_patterns=*/false);
    Rig rig{shard::PlanForCity((*bootstrap_)->pois, shards,
                               options.miner.csd),
            nullptr, nullptr, nullptr};
    auto snapshot = std::make_shared<serve::CsdSnapshot>(*bootstrap_,
                                                         options, rig.plan);
    rig.store = std::make_unique<serve::ShardedSnapshotStore>(
        rig.plan.num_shards());
    rig.bootstrap_version = rig.store->PublishAll(snapshot);
    serve::ServeOptions serve_options;
    serve_options.snapshot = options;
    rig.service = std::make_unique<serve::ServeService>(
        rig.store.get(), rig.plan, serve_options);
    rig.ingestor = std::make_unique<stream::StreamIngestor>(
        rig.service.get(), rig.store.get(), rig.plan, *bootstrap_);
    return rig;
  }

  /// A qualifying dwell at `at`: 8 fixes two minutes apart (span 840 s
  /// ≥ θ_t), jittered a couple of meters so the mean is non-trivial.
  static std::vector<GpsPoint> MakeDwellFixes(Vec2 at, Timestamp start) {
    std::vector<GpsPoint> fixes;
    for (size_t i = 0; i < 8; ++i) {
      fixes.push_back(
          GpsPoint{Vec2{at.x + 2.0 * static_cast<double>(i % 3),
                        at.y - 1.5 * static_cast<double>(i % 2)},
                   start + static_cast<Timestamp>(i) * 2 * kSecondsPerMinute});
    }
    return fixes;
  }

  static SyntheticCity* city_;
  static std::shared_ptr<const serve::ServeDataset>* bootstrap_;
};

SyntheticCity* StreamChaosTest::city_ = nullptr;
std::shared_ptr<const serve::ServeDataset>* StreamChaosTest::bootstrap_ =
    nullptr;

TEST_F(StreamChaosTest, IngestFaultRejectsTheBatchBeforeAnyStateChange) {
  Rig rig = MakeRig(4);
  Vec2 at = (*bootstrap_)->pois.pois().front().position;
  std::vector<GpsPoint> fixes = MakeDwellFixes(at, 1000);

  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/ingest", "return(unavailable:ingest chaos)")
                  .ok());
  Status injected =
      rig.ingestor->IngestFixes(7, std::span<const GpsPoint>(fixes));
  EXPECT_EQ(injected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(injected.message(), "ingest chaos");
  // The fault fired before any state change: no fixes counted, no
  // detector created, nothing pending.
  EXPECT_EQ(rig.ingestor->fixes_ingested(), 0u);
  EXPECT_EQ(rig.ingestor->num_users(), 0u);
  EXPECT_EQ(rig.ingestor->pending_stays(), 0u);

  // The client retries the exact same frame after the fault clears:
  // counted once, emitted once.
  FailpointRegistry::Get().DisarmAll();
  Status retried =
      rig.ingestor->IngestFixes(7, std::span<const GpsPoint>(fixes));
  ASSERT_TRUE(retried.ok()) << retried.message();
  EXPECT_EQ(rig.ingestor->fixes_ingested(), fixes.size());
  EXPECT_EQ(rig.ingestor->num_users(), 1u);
  rig.ingestor->FlushAll();
  EXPECT_EQ(rig.ingestor->pending_stays(), 1u);
  rig.service->Shutdown();
}

TEST_F(StreamChaosTest, RebuildFaultKeepsLastGoodSnapshotAndLosesNoDeltas) {
  Rig rig = MakeRig(4);
  const std::vector<Poi>& pois = (*bootstrap_)->pois.pois();
  ASSERT_TRUE(rig.ingestor
                  ->IngestFixes(3, std::span<const GpsPoint>(MakeDwellFixes(
                                       pois.front().position, 1000)))
                  .ok());
  rig.ingestor->FlushAll();
  size_t pending = rig.ingestor->pending_stays();
  ASSERT_GT(pending, 0u);
  std::vector<uint64_t> lanes_before;
  for (size_t s = 0; s < rig.store->num_shards(); ++s) {
    lanes_before.push_back(rig.store->shard_version(s));
  }
  uint64_t global_before = rig.store->current_version();

  // Incremental tick under a rebuild fault: nothing publishes, and the
  // delta (stays + dirty marks) goes back on the pending list.
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/rebuild", "return(unavailable:rebuild chaos)")
                  .ok());
  stream::RebuildTickReport failed = rig.ingestor->PublishTick();
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(failed.shards_rebuilt, 0u);
  EXPECT_EQ(failed.version, 0u);
  EXPECT_EQ(rig.store->current_version(), global_before);
  for (size_t s = 0; s < rig.store->num_shards(); ++s) {
    EXPECT_EQ(rig.store->shard_version(s), lanes_before[s]) << "lane " << s;
  }
  EXPECT_EQ(rig.ingestor->pending_stays(), pending) << "delta was lost";

  // Graceful degradation: annotation still serves from the last good
  // (bootstrap) snapshot while the rebuild path is down.
  std::vector<StayPoint> probe;
  probe.emplace_back(pois.front().position, Timestamp{0});
  auto annotate_or = rig.service->AnnotateStayPoints(probe);
  ASSERT_TRUE(annotate_or.ok()) << annotate_or.status().ToString();
  AnnotateResult served = std::move(annotate_or).value().get();
  EXPECT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(served.snapshot_version, rig.bootstrap_version);

  // Fault clears: the very next tick folds the restored delta and
  // publishes.
  FailpointRegistry::Get().DisarmAll();
  stream::RebuildTickReport retried = rig.ingestor->PublishTick();
  EXPECT_TRUE(retried.status.ok()) << retried.status.message();
  EXPECT_GT(retried.shards_rebuilt, 0u);
  EXPECT_GT(retried.version, rig.bootstrap_version);
  EXPECT_EQ(rig.ingestor->pending_stays(), 0u);

  // The checkpoint path restores its delta on failure too.
  ASSERT_TRUE(rig.ingestor
                  ->IngestFixes(4, std::span<const GpsPoint>(MakeDwellFixes(
                                       pois.back().position, 50000)))
                  .ok());
  rig.ingestor->FlushAll();
  size_t pending_checkpoint = rig.ingestor->pending_stays();
  ASSERT_GT(pending_checkpoint, 0u);
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/rebuild", "return(unavailable:rebuild chaos)")
                  .ok());
  stream::RebuildTickReport failed_checkpoint =
      rig.ingestor->PublishTick(/*force_checkpoint=*/true);
  EXPECT_TRUE(failed_checkpoint.checkpoint);
  EXPECT_FALSE(failed_checkpoint.status.ok());
  EXPECT_EQ(rig.ingestor->pending_stays(), pending_checkpoint);
  // The global lane only moves on a successful PublishAll: still the
  // bootstrap generation after the failed checkpoint.
  EXPECT_EQ(rig.store->current_version(), global_before);

  FailpointRegistry::Get().DisarmAll();
  stream::RebuildTickReport checkpoint =
      rig.ingestor->PublishTick(/*force_checkpoint=*/true);
  EXPECT_TRUE(checkpoint.status.ok()) << checkpoint.status.message();
  EXPECT_TRUE(checkpoint.checkpoint);
  EXPECT_GT(checkpoint.version, retried.version);
  for (size_t s = 0; s < rig.store->num_shards(); ++s) {
    EXPECT_EQ(rig.store->shard_version(s), checkpoint.version);
  }
  EXPECT_EQ(rig.ingestor->pending_stays(), 0u);
  rig.service->Shutdown();
}

TEST_F(StreamChaosTest, RestoreAfterMidTickFaultMatchesBatchOracleBytes) {
  // The delta-restore path under chaos, held to byte identity: a tick
  // that fails mid-flight Restore()s its drained delta, MORE evidence
  // folds on top of the restored state (the double-count surface), and
  // the eventual forced checkpoint must still reproduce the batch
  // oracle over bootstrap + both dwells exactly — a fault is never a
  // lost OR a doubled stay. Metrics are asserted by VALUE, so enable
  // the obs layer for the duration.
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  Rig rig = MakeRig(4);
  const std::vector<Poi>& pois = (*bootstrap_)->pois.pois();
  std::vector<GpsPoint> dwell3 = MakeDwellFixes(pois.front().position, 1000);
  std::vector<GpsPoint> dwell5 = MakeDwellFixes(pois[400].position, 50000);

  ASSERT_TRUE(rig.ingestor
                  ->IngestFixes(3, std::span<const GpsPoint>(dwell3))
                  .ok());
  rig.ingestor->FlushAll();
  size_t pending = rig.ingestor->pending_stays();
  ASSERT_GT(pending, 0u);

  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/rebuild", "return(unavailable:rebuild chaos)")
                  .ok());
  stream::RebuildTickReport failed = rig.ingestor->PublishTick();
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rig.ingestor->pending_stays(), pending);
  // The restored delta republishes the gauges: pending stays and dirty
  // shards both read the restored state, not zero and not double.
  EXPECT_EQ(stream::PendingStaysGauge().Value(),
            static_cast<double>(pending));
  EXPECT_GT(stream::DirtyShardsGauge().Value(), 0.0);

  // Fold a second user's dwell on top of the restored delta before the
  // retry — merging, not double-counting, is what's under test.
  ASSERT_TRUE(rig.ingestor
                  ->IngestFixes(5, std::span<const GpsPoint>(dwell5))
                  .ok());
  rig.ingestor->FlushAll();
  EXPECT_GT(rig.ingestor->pending_stays(), pending);

  FailpointRegistry::Get().DisarmAll();
  stream::RebuildTickReport checkpoint =
      rig.ingestor->PublishTick(/*force_checkpoint=*/true);
  ASSERT_TRUE(checkpoint.status.ok()) << checkpoint.status.message();
  EXPECT_TRUE(checkpoint.checkpoint);
  // After the forced checkpoint both stream gauges must read exactly
  // zero — a drained accumulator that leaves a stale gauge behind turns
  // every dashboard into a false alarm.
  EXPECT_EQ(rig.ingestor->pending_stays(), 0u);
  EXPECT_EQ(stream::PendingStaysGauge().Value(), 0.0);
  EXPECT_EQ(stream::DirtyShardsGauge().Value(), 0.0);

  // The batch oracle: bootstrap evidence plus both dwells' batch stays
  // in user-id order — the canonical order the accumulator maintains
  // across the fault.
  std::vector<StayPoint> stays = (*bootstrap_)->stays;
  for (const std::vector<GpsPoint>* fixes : {&dwell3, &dwell5}) {
    Trajectory trace;
    trace.points = *fixes;
    std::vector<StayPoint> user_stays = DetectStayPoints(trace);
    ASSERT_EQ(user_stays.size(), 1u);
    stays.insert(stays.end(), user_stays.begin(), user_stays.end());
  }
  auto oracle_data = std::make_shared<const serve::ServeDataset>(
      pois, std::move(stays), (*bootstrap_)->trajectories);
  serve::CsdSnapshot oracle(oracle_data,
                            TestSnapshotOptions(/*mine_patterns=*/false),
                            rig.plan);

  auto serialize = [](const CitySemanticDiagram& diagram,
                      const std::string& tag) {
    std::string path = ::testing::TempDir() + "/chaos_" + tag + ".bin";
    Status written = WriteCsdBinary(path, diagram);
    EXPECT_TRUE(written.ok()) << written.message();
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.c_str());
    return bytes.str();
  };
  EXPECT_EQ(serialize(rig.store->Acquire()->diagram(), "served"),
            serialize(oracle.diagram(), "oracle"));
  rig.service->Shutdown();
  obs::SetEnabled(obs_was_enabled);
}

// --- Deadline propagation -------------------------------------------------

TEST_F(ServeFaultTest, ExpiredDeadlineRejectsBeforeAdmission) {
  K1Store store(*snapshot_);
  serve::ServeService service(&store, store.plan);
  Rng rng(43);
  uint64_t admitted_before =
      service.admission().Admitted(serve::RequestClass::kAnnotate);
  auto expired = service.AnnotateStayPoints(
      MakeStays(rng, 1),
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.admission().Admitted(serve::RequestClass::kAnnotate),
            admitted_before);
}

TEST_F(ServeFaultTest, DeadlineExpiringInQueueCompletesWithStatus) {
  K1Store store(*snapshot_);
  serve::ServeOptions options;
  options.start_paused = true;  // hold the queue so the deadline passes
  serve::ServeService service(&store, store.plan, options);

  Rng rng(47);
  auto future_or = service.AnnotateStayPoints(
      MakeStays(rng, 2),
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30));
  ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  service.SetPausedForTest(false);

  std::future<AnnotateResult> future = std::move(future_or).value();
  ASSERT_EQ(future.wait_for(kResolveBound), std::future_status::ready);
  AnnotateResult result = future.get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.stays.size(), 2u);
  for (UnitId unit : result.units) EXPECT_EQ(unit, kNoUnit);

  // Slot released: the next request is admitted and served normally.
  auto after = service.AnnotateStayPoints(MakeStays(rng, 1));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(std::move(after).value().get().status.ok());
}

TEST_F(ServeFaultTest, BatchWindowNeverOutlivesTheEarliestDeadline) {
  K1Store store(*snapshot_);
  serve::ServeOptions options;
  options.batch.max_batch = 64;
  options.batch.max_delay = std::chrono::seconds(30);  // absurd window
  serve::ServeService service(&store, store.plan, options);

  // A lone request with a 100 ms budget: the window must collapse to the
  // deadline instead of coalescing for 30 s. Completion (here: expiry,
  // since nothing else closed the window first) arrives promptly.
  Rng rng(53);
  auto start = std::chrono::steady_clock::now();
  auto future_or = service.AnnotateStayPoints(
      MakeStays(rng, 1), start + std::chrono::milliseconds(100));
  ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
  std::future<AnnotateResult> future = std::move(future_or).value();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "the 30s batch window must not outlive a 100ms deadline";
  EXPECT_EQ(future.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));

  // A deadline longer than the window is untouched by the clamp: the
  // request rides the normal max_batch/max_delay close and succeeds.
  serve::ServeOptions fast;
  fast.batch.max_delay = std::chrono::milliseconds(1);
  K1Store store2(*snapshot_);
  serve::ServeService quick(&store2, store2.plan, fast);
  auto roomy = quick.AnnotateStayPoints(
      MakeStays(rng, 2),
      std::chrono::steady_clock::now() + std::chrono::seconds(30));
  ASSERT_TRUE(roomy.ok());
  AnnotateResult result = std::move(roomy).value().get();
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.units.size(), 2u);
}

// --- Batcher shutdown / pause edge cases ---------------------------------

/// Execute callback for direct batcher tests: annotates nothing, just
/// completes every request OK (the batcher's contract, not the kernel, is
/// under test).
RequestBatcher::ExecuteFn FulfilAll() {
  return [](std::vector<AnnotateRequest> batch) {
    for (AnnotateRequest& request : batch) {
      AnnotateResult result;
      result.snapshot_version = 1;
      result.stays = std::move(request.stays);
      result.units.assign(result.stays.size(), kNoUnit);
      serve::CompleteRequest(request, std::move(result));
    }
  };
}

/// A one-stay request whose completion resolves `*future`.
AnnotateRequest MakeBatcherRequest(
    std::future<AnnotateResult>* future,
    std::chrono::steady_clock::time_point deadline = kNoDeadline) {
  AnnotateRequest request;
  request.stays.emplace_back(Vec2{1.0, 2.0}, 0);
  request.enqueue_time = std::chrono::steady_clock::now();
  request.deadline = deadline;
  auto promise = std::make_shared<std::promise<AnnotateResult>>();
  *future = promise->get_future();
  request.on_complete = [promise](AnnotateResult result) {
    promise->set_value(std::move(result));
  };
  return request;
}

TEST(RequestBatcherTest, EnqueueAfterDrainResolvesWithUnavailable) {
  RequestBatcher batcher({}, FulfilAll());
  batcher.Drain();

  // Regression: enqueueing after the dispatcher exited used to strand the
  // request in the queue forever. It must be rejected with a resolved
  // promise instead.
  std::future<AnnotateResult> future;
  EXPECT_FALSE(batcher.Enqueue(MakeBatcherRequest(&future)));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "rejected request must resolve immediately";
  AnnotateResult result = future.get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.stays.size(), 1u);
  EXPECT_EQ(batcher.Depth(), 0u);
}

TEST(RequestBatcherTest, EnqueueRacingDrainNeverStrandsARequest) {
  constexpr size_t kRequests = 256;
  std::vector<std::future<AnnotateResult>> futures;
  futures.reserve(kRequests);
  {
    serve::BatchPolicy policy;
    policy.max_batch = 4;
    policy.max_delay = std::chrono::microseconds(200);
    RequestBatcher batcher(policy, FulfilAll());
    std::thread producer([&] {
      for (size_t i = 0; i < kRequests; ++i) {
        futures.emplace_back();
        batcher.Enqueue(MakeBatcherRequest(&futures.back()));
        if (i % 16 == 0) std::this_thread::yield();
      }
    });
    // Drain mid-stream: some enqueues land before, some race, some land
    // after. Every single future must still resolve.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    batcher.Drain();
    producer.join();
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "request " << i << " was stranded without a verdict";
    AnnotateResult result = futures[i].get();
    EXPECT_TRUE(result.status.ok() ||
                result.status.code() == StatusCode::kUnavailable)
        << result.status.ToString();
  }
}

TEST(RequestBatcherTest, RePauseMidWindowPreservesTheOriginalWindow) {
  serve::BatchPolicy policy;
  policy.max_batch = 8;  // never closes by size in this test
  policy.max_delay = std::chrono::milliseconds(1500);
  RequestBatcher batcher(policy, FulfilAll());

  // t=0: the request opens a 1500 ms window.
  auto start = std::chrono::steady_clock::now();
  std::future<AnnotateResult> future;
  ASSERT_TRUE(batcher.Enqueue(MakeBatcherRequest(&future)));

  // Pause at ~100 ms, resume at ~800 ms: with the window preserved the
  // batch still dispatches at ~1500 ms. The old bug restarted the window
  // on resume, pushing dispatch to ~2300 ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  batcher.SetPaused(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  batcher.SetPaused(false);

  ASSERT_EQ(future.wait_for(std::chrono::milliseconds(1100)),
            std::future_status::ready)
      << "re-pause must not tax the request a fresh max_delay";
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(1300))
      << "batch dispatched before its window closed";
  EXPECT_TRUE(future.get().status.ok());
}

// The batcher wakes its dispatcher only on requests that change what it
// does. Each wake trigger has a test that hangs on the 30 s window when
// the trigger goes missing: a full batch closes the window, and an
// earlier deadline pulls it closed.

TEST(RequestBatcherTest, FullBatchClosesWithoutWaitingOutTheWindow) {
  serve::BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_delay = std::chrono::seconds(30);
  RequestBatcher batcher(policy, FulfilAll());

  std::vector<std::future<AnnotateResult>> futures(4);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.Enqueue(MakeBatcherRequest(&futures[i])));
  }
  // Let the dispatcher open the window and sleep on it, so the fourth
  // request is the one that has to wake it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(batcher.Enqueue(MakeBatcherRequest(&futures[3])));
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "request " << i << " waited out the window of a full batch";
    EXPECT_TRUE(futures[i].get().status.ok());
  }
}

TEST(RequestBatcherTest, EarlierDeadlinePullsAnOpenWindowClosed) {
  serve::BatchPolicy policy;
  policy.max_delay = std::chrono::seconds(30);
  RequestBatcher batcher(policy, FulfilAll());

  std::future<AnnotateResult> patient;
  ASSERT_TRUE(batcher.Enqueue(MakeBatcherRequest(&patient)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::future<AnnotateResult> urgent;
  ASSERT_TRUE(batcher.Enqueue(MakeBatcherRequest(
      &urgent,
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100))));
  for (std::future<AnnotateResult>* future : {&urgent, &patient}) {
    ASSERT_EQ(future->wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "a 100 ms deadline must pull the 30 s window closed";
    EXPECT_TRUE(future->get().status.ok());
  }
}

TEST(RequestBatcherTest, OneWindowCostsAHandfulOfWakeups) {
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter& wakeups = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_batcher_wakeups_total",
      "Batcher dispatcher returns from a condition wait");
  serve::BatchPolicy policy;
  policy.max_delay = std::chrono::milliseconds(200);
  RequestBatcher batcher(policy, FulfilAll());

  const uint64_t before = wakeups.Value();
  std::vector<std::future<AnnotateResult>> futures(32);
  for (std::future<AnnotateResult>& future : futures) {
    ASSERT_TRUE(batcher.Enqueue(MakeBatcherRequest(&future)));
    // Spaced out so each request finds the dispatcher asleep on the
    // window: a per-request wake would show as one wakeup each.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::future<AnnotateResult>& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().status.ok());
  }
  // One wake opens the window and one timeout closes it; the other 31
  // requests join silently. The slack covers spurious wakeups.
  EXPECT_LE(wakeups.Value() - before, 4u);
  obs::SetEnabled(obs_was_enabled);
}

// --- Admission ticket accounting -----------------------------------------

TEST_F(ServeFaultTest, RepeatedQueriesDoNotLeakAdmissionSlots) {
  K1Store store(*snapshot_);
  serve::ServeOptions options;
  options.limits.query = 4;
  serve::ServeService service(&store, store.plan, options);
  // 5x the budget sequentially: any leaked slot would exhaust the class.
  for (int i = 0; i < 20; ++i) {
    auto result = service.QueryPatternsByUnit(static_cast<UnitId>(i % 7));
    ASSERT_TRUE(result.ok()) << "query " << i << " leaked a slot: "
                             << result.status().ToString();
  }
  EXPECT_EQ(service.admission().Rejected(serve::RequestClass::kQuery), 0u);
}

// --- Client retry policy --------------------------------------------------

TEST(RetryPolicyTest, RetriesTransientsAndStopsOnPermanentErrors) {
  serve::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = std::chrono::microseconds(1);
  policy.max_backoff = std::chrono::microseconds(10);

  size_t calls = 0;
  auto flaky = serve::RetryWithBackoff(policy, 1, [&]() -> Result<int> {
    if (++calls < 3) return Status::Unavailable("transient");
    return 42;
  });
  ASSERT_TRUE(flaky.ok());
  EXPECT_EQ(flaky.value(), 42);
  EXPECT_EQ(calls, 3u);

  calls = 0;
  auto permanent = serve::RetryWithBackoff(policy, 2, [&]() -> Result<int> {
    ++calls;
    return Status::InvalidArgument("never retry this");
  });
  EXPECT_FALSE(permanent.ok());
  EXPECT_EQ(calls, 1u);  // permanent errors burn exactly one attempt

  calls = 0;
  auto exhausted = serve::RetryWithBackoff(policy, 3, [&]() -> Result<int> {
    ++calls;
    return Status::DeadlineExceeded("always late");
  });
  EXPECT_FALSE(exhausted.ok());
  EXPECT_EQ(calls, policy.max_attempts);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithDeterministicJitter) {
  serve::RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds(200);
  policy.multiplier = 2.0;
  policy.max_backoff = std::chrono::microseconds(1000);

  EXPECT_TRUE(serve::IsRetryableStatus(Status::Unavailable("x")));
  EXPECT_TRUE(serve::IsRetryableStatus(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(serve::IsRetryableStatus(Status::Internal("x")));
  EXPECT_FALSE(serve::IsRetryableStatus(Status::OK()));

  for (size_t attempt = 1; attempt <= 4; ++attempt) {
    auto a = serve::BackoffWithJitter(policy, 7, attempt);
    auto b = serve::BackoffWithJitter(policy, 7, attempt);
    EXPECT_EQ(a, b) << "jitter must be deterministic per (token, attempt)";
    // Jitter keeps each delay within [base/2, base), bases 200/400/800
    // capped at 1000.
    double base = std::min(200.0 * std::pow(2.0, double(attempt - 1)),
                           1000.0);
    EXPECT_GE(a.count(), static_cast<int64_t>(base / 2.0) - 1);
    EXPECT_LT(a.count(), static_cast<int64_t>(base) + 1);
  }
  // Different tokens decorrelate the schedule.
  EXPECT_NE(serve::BackoffWithJitter(policy, 1, 1),
            serve::BackoffWithJitter(policy, 2, 1));
}

}  // namespace
}  // namespace csd
