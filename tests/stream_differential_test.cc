// Differential replay harness for the streaming ingest layer
// (src/stream): the load-bearing claim is that feeding a GPS trace
// fix-by-fix through OnlineStayPointDetector emits byte-identical stay
// points to batch DetectStayPoints on the same trace, and that a
// checkpoint publish over the accumulated stream reproduces the batch
// pipeline's diagram bit for bit — across publish-tick cadences, global
// feed interleavings and worker-thread counts. Between checkpoints the
// divergence is bounded to the dirty-tile fringe: rebuilt lanes already
// serve the exact final answer, untouched lanes serve the last
// generation (docs/streaming.md).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/city_semantic_diagram.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "shard/shard_plan.h"
#include "shard/sharded_build.h"
#include "stream/online_stay_point_detector.h"
#include "stream/stream_ingestor.h"
#include "synth/city_generator.h"
#include "synth/trace_replayer.h"
#include "synth/trip_generator.h"
#include "tests/serve_test_helpers.h"
#include "traj/stay_point_detector.h"
#include "util/parallel.h"

namespace csd::stream {
namespace {

using serve::CsdSnapshot;
using serve::ServeDataset;
using serve::ServeService;
using serve::ShardedSnapshotStore;
using serve::testing::MonolithicPlan;
using serve::testing::SerializeDiagram;
using serve::testing::TestSnapshotOptions;

/// The per-trace half of the differential harness: batch stays vs the
/// online detector fed one fix at a time, compared field by field with
/// exact double equality — same accumulation order, same truncation,
/// same bytes.
void ExpectStaysIdentical(const std::vector<StayPoint>& batch,
                          const std::vector<StayPoint>& online,
                          const std::string& tag) {
  ASSERT_EQ(batch.size(), online.size()) << tag;
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].position.x, online[i].position.x)
        << tag << ": stay " << i;
    EXPECT_EQ(batch[i].position.y, online[i].position.y)
        << tag << ": stay " << i;
    EXPECT_EQ(batch[i].time, online[i].time) << tag << ": stay " << i;
  }
}

std::vector<StayPoint> RunOnline(const Trajectory& trace,
                                 const OnlineDetectorOptions& options,
                                 uint64_t* late_dropped = nullptr) {
  OnlineStayPointDetector detector(options);
  std::vector<StayPoint> stays;
  for (const GpsPoint& fix : trace.points) {
    detector.Ingest(fix, &stays);
  }
  detector.Flush(&stays);
  if (late_dropped != nullptr) *late_dropped = detector.late_dropped();
  return stays;
}

/// The shared replay city: same scale as MakeTestDataset so snapshot
/// builds stay in the tens of milliseconds.
SyntheticCity MakeReplayCity() {
  CityConfig config;
  config.num_pois = 2000;
  config.width_m = 6000.0;
  config.height_m = 6000.0;
  config.seed = 7;
  return GenerateCity(config);
}

ReplayConfig MakeReplayConfig(size_t num_users = 24) {
  ReplayConfig config;
  config.num_users = num_users;
  config.stops_per_user = 4;
  return config;
}

TEST(StreamDifferentialTest, OnlineMatchesBatchFixByFix) {
  SyntheticCity city = MakeReplayCity();
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig());
  ASSERT_FALSE(replay.traces.empty());
  size_t total_stays = 0;
  for (const Trajectory& trace : replay.traces) {
    std::vector<StayPoint> batch = DetectStayPoints(trace);
    std::vector<StayPoint> online = RunOnline(trace, {});
    ExpectStaysIdentical(batch, online,
                         "user " + std::to_string(trace.passenger));
    total_stays += batch.size();
  }
  // The workload must exercise the claim, not vacuously pass on traces
  // with no qualifying dwells.
  EXPECT_GT(total_stays, replay.traces.size());
}

TEST(StreamDifferentialTest, ReorderWindowIsIdentityOnSortedTraces) {
  SyntheticCity city = MakeReplayCity();
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig(8));
  OnlineDetectorOptions windowed;
  windowed.reorder_window_s = 120;
  for (const Trajectory& trace : replay.traces) {
    uint64_t dropped = 0;
    std::vector<StayPoint> online = RunOnline(trace, windowed, &dropped);
    ExpectStaysIdentical(DetectStayPoints(trace), online,
                         "windowed user " + std::to_string(trace.passenger));
    EXPECT_EQ(dropped, 0u);
  }
}

/// Swaps adjacent fixes at a stride: a trace whose timestamps are
/// locally out of order, the GPS-burst arrival pattern the reorder
/// window exists for.
Trajectory PerturbTrace(const Trajectory& trace, size_t stride) {
  Trajectory perturbed = trace;
  for (size_t i = 3; i + 1 < perturbed.points.size(); i += stride) {
    std::swap(perturbed.points[i], perturbed.points[i + 1]);
  }
  return perturbed;
}

TEST(StreamDifferentialTest, DropPolicyMatchesGuardedBatchOnDisorder) {
  SyntheticCity city = MakeReplayCity();
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig(8));
  size_t total_dropped = 0;
  for (const Trajectory& trace : replay.traces) {
    Trajectory perturbed = PerturbTrace(trace, 7);
    size_t batch_dropped = 0;
    std::vector<StayPoint> batch =
        DetectStayPoints(perturbed, StayPointOptions{}, &batch_dropped);
    uint64_t online_dropped = 0;
    std::vector<StayPoint> online =
        RunOnline(perturbed, {}, &online_dropped);  // window 0: drop late
    ExpectStaysIdentical(batch, online,
                         "perturbed user " + std::to_string(trace.passenger));
    EXPECT_EQ(batch_dropped, online_dropped)
        << "user " << trace.passenger;
    total_dropped += batch_dropped;
  }
  EXPECT_GT(total_dropped, 0u);  // the perturbation must actually bite
}

TEST(StreamDifferentialTest, LateFixAtReleaseFloorIsKeptNotDropped) {
  // Boundary audit of the drop rule, pinned by hand-built fixes: the
  // floor is the newest RELEASED timestamp, and a late fix landing
  // exactly ON it is kept (drop is `<`, not `<=`) — matching batch
  // DropLateFixes, which keeps equal timestamps too.
  OnlineDetectorOptions windowed;
  windowed.reorder_window_s = 60;
  OnlineStayPointDetector detector(windowed);
  std::vector<StayPoint> stays;
  detector.Ingest(GpsPoint{Vec2{10.0, 10.0}, 1000}, &stays);
  // Watermark 1060 releases the t=1000 fix (1000 + 60 <= 1060): the
  // floor is now exactly 1000.
  detector.Ingest(GpsPoint{Vec2{12.0, 10.0}, 1060}, &stays);
  EXPECT_EQ(detector.late_dropped(), 0u);
  // On the floor: kept.
  detector.Ingest(GpsPoint{Vec2{14.0, 10.0}, 1000}, &stays);
  EXPECT_EQ(detector.late_dropped(), 0u);
  // One second below it: dropped.
  detector.Ingest(GpsPoint{Vec2{16.0, 10.0}, 999}, &stays);
  EXPECT_EQ(detector.late_dropped(), 1u);
  // And the same boundary semantics with the window off (floor = newest
  // accepted fix): equal is kept, strictly older is dropped.
  OnlineStayPointDetector unwindowed((OnlineDetectorOptions()));
  unwindowed.Ingest(GpsPoint{Vec2{10.0, 10.0}, 2000}, &stays);
  unwindowed.Ingest(GpsPoint{Vec2{12.0, 10.0}, 2000}, &stays);
  EXPECT_EQ(unwindowed.late_dropped(), 0u);
  unwindowed.Ingest(GpsPoint{Vec2{14.0, 10.0}, 1999}, &stays);
  EXPECT_EQ(unwindowed.late_dropped(), 1u);
}

TEST(StreamDifferentialTest, ReorderWindowRecoversLateFixes) {
  SyntheticCity city = MakeReplayCity();
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig(8));
  OnlineDetectorOptions windowed;
  // Adjacent swaps displace a fix by one sample interval (30 s); any
  // window past that re-sorts the feed completely.
  windowed.reorder_window_s = 90;
  for (const Trajectory& trace : replay.traces) {
    Trajectory perturbed = PerturbTrace(trace, 7);
    uint64_t dropped = 0;
    std::vector<StayPoint> online = RunOnline(perturbed, windowed, &dropped);
    // Recovered: identical to the CLEAN trace's batch result, nothing
    // dropped — the window turned disorder back into the true signal.
    ExpectStaysIdentical(DetectStayPoints(trace), online,
                         "recovered user " + std::to_string(trace.passenger));
    EXPECT_EQ(dropped, 0u) << "user " << trace.passenger;
  }
}

TEST(StreamDifferentialTest, ReorderWindowExactlyAtDisplacementRecovers) {
  // An adjacent swap displaces a fix by exactly one 30 s sample
  // interval. The recovery threshold is the window EQUAL to that
  // displacement, not strictly greater — the release rule is
  // `time + W <= watermark`, so a window of one interval re-sorts the
  // swap with nothing dropped. A regression to `<` (or an off-by-one in
  // the floor) breaks this exact-boundary case first.
  SyntheticCity city = MakeReplayCity();
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig(8));
  OnlineDetectorOptions windowed;
  windowed.reorder_window_s = 30;
  for (const Trajectory& trace : replay.traces) {
    Trajectory perturbed = PerturbTrace(trace, 7);
    uint64_t dropped = 0;
    std::vector<StayPoint> online = RunOnline(perturbed, windowed, &dropped);
    ExpectStaysIdentical(DetectStayPoints(trace), online,
                         "boundary user " + std::to_string(trace.passenger));
    EXPECT_EQ(dropped, 0u) << "user " << trace.passenger;
  }
}

/// Collapses timestamps onto their predecessor at a stride: a trace with
/// duplicate timestamps, the other boundary the drop rule must agree on.
Trajectory DuplicateTimestamps(const Trajectory& trace, size_t stride) {
  Trajectory duplicated = trace;
  for (size_t i = 2; i < duplicated.points.size(); i += stride) {
    duplicated.points[i].time = duplicated.points[i - 1].time;
  }
  return duplicated;
}

TEST(StreamDifferentialTest, BoundaryFuzzDuplicateTimestampsMatchBatch) {
  // Fuzz the two boundary behaviors together: duplicate timestamps
  // (kept on both paths) layered over adjacent swaps (dropped on both
  // paths, window 0). Online and guarded batch must agree on stays AND
  // drop counts for every stride/trace combination.
  SyntheticCity city = MakeReplayCity();
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig(8));
  size_t total_dropped = 0;
  for (size_t stride : {size_t{5}, size_t{9}, size_t{13}}) {
    for (const Trajectory& trace : replay.traces) {
      Trajectory fuzzed = DuplicateTimestamps(PerturbTrace(trace, 7), stride);
      size_t batch_dropped = 0;
      std::vector<StayPoint> batch =
          DetectStayPoints(fuzzed, StayPointOptions{}, &batch_dropped);
      uint64_t online_dropped = 0;
      std::vector<StayPoint> online = RunOnline(fuzzed, {}, &online_dropped);
      ExpectStaysIdentical(batch, online,
                           "fuzz stride " + std::to_string(stride) + " user " +
                               std::to_string(trace.passenger));
      EXPECT_EQ(batch_dropped, online_dropped)
          << "stride " << stride << " user " << trace.passenger;
      total_dropped += batch_dropped;
    }
  }
  EXPECT_GT(total_dropped, 0u);
}

/// The batch oracle for an end-to-end run: bootstrap evidence followed
/// by every user's batch-detected stays in user order — exactly the
/// canonical order DeltaAccumulator maintains, independent of how the
/// stream was interleaved or ticked.
std::shared_ptr<const ServeDataset> MakeOracleDataset(
    const std::shared_ptr<const ServeDataset>& bootstrap,
    const std::vector<Trajectory>& traces) {
  std::vector<StayPoint> stays = bootstrap->stays;
  for (const Trajectory& trace : traces) {
    std::vector<StayPoint> user_stays = DetectStayPoints(trace);
    stays.insert(stays.end(), user_stays.begin(), user_stays.end());
  }
  // Pin the oracle's decay instant to the newest stay — exactly the
  // watermark a streamed generation publishes with (the stream's stays
  // are this same set, so max(bootstrap, stream watermark) coincides).
  // Ignored while decay is off, so every decay-off oracle is unchanged.
  Timestamp decay_as_of = ResolveDecayAsOf(stays);
  return std::make_shared<const ServeDataset>(
      bootstrap->pois.pois(), std::move(stays), bootstrap->trajectories,
      decay_as_of);
}

struct StreamRig {
  shard::ShardPlan plan;
  std::shared_ptr<const ServeDataset> bootstrap;
  std::unique_ptr<ShardedSnapshotStore> store;
  std::unique_ptr<ServeService> service;
  std::unique_ptr<StreamIngestor> ingestor;
  uint64_t bootstrap_version = 0;
};

StreamRig MakeRig(const std::shared_ptr<const ServeDataset>& bootstrap,
                  size_t shards,
                  serve::SnapshotOptions options = TestSnapshotOptions()) {
  StreamRig rig{shard::PlanForCity(bootstrap->pois, shards,
                                   options.miner.csd),
                bootstrap,
                nullptr,
                nullptr,
                nullptr};
  auto snapshot = std::make_shared<CsdSnapshot>(bootstrap, options,
                                                rig.plan);
  rig.store = std::make_unique<ShardedSnapshotStore>(rig.plan.num_shards());
  rig.bootstrap_version = rig.store->PublishAll(snapshot);
  serve::ServeOptions serve_options;
  serve_options.snapshot = options;
  rig.service = std::make_unique<ServeService>(rig.store.get(), rig.plan,
                                               serve_options);
  rig.ingestor = std::make_unique<StreamIngestor>(
      rig.service.get(), rig.store.get(), rig.plan, bootstrap);
  return rig;
}

/// Feeds a stream fix-by-fix with incremental publish ticks every
/// `tick_every` fixes, flushes, forces a final checkpoint, and returns
/// the serialized bytes of the diagram every lane then serves.
std::string RunStreamToCheckpoint(StreamRig& rig,
                                  const std::vector<ReplayFix>& stream,
                                  size_t tick_every, const std::string& tag) {
  size_t fed = 0;
  for (const ReplayFix& rf : stream) {
    Status folded = rig.ingestor->IngestFixes(
        rf.user_id, std::span<const GpsPoint>(&rf.fix, 1));
    EXPECT_TRUE(folded.ok()) << folded.message();
    if (++fed % tick_every == 0) {
      RebuildTickReport report = rig.ingestor->PublishTick();
      EXPECT_TRUE(report.status.ok()) << report.status.message();
    }
  }
  rig.ingestor->FlushAll();
  RebuildTickReport checkpoint =
      rig.ingestor->PublishTick(/*force_checkpoint=*/true);
  EXPECT_TRUE(checkpoint.status.ok()) << checkpoint.status.message();
  EXPECT_TRUE(checkpoint.checkpoint);
  EXPECT_GT(checkpoint.version, rig.bootstrap_version);
  // A checkpoint PublishAll()s: every lane serves the same generation.
  for (size_t s = 0; s < rig.store->num_shards(); ++s) {
    EXPECT_EQ(rig.store->shard_version(s), checkpoint.version) << tag;
  }
  std::string bytes =
      SerializeDiagram(rig.store->Acquire()->diagram(), tag);
  rig.service->Shutdown();
  return bytes;
}

TEST(StreamDifferentialTest, CheckpointReproducesBatchDiagramBytes) {
  SyntheticCity city = MakeReplayCity();
  TripConfig trip_config;
  trip_config.num_agents = 300;
  trip_config.num_days = 2;
  trip_config.seed = 62;
  TripDataset trips = GenerateTrips(city, trip_config);
  std::shared_ptr<const ServeDataset> bootstrap =
      serve::MakeServeDataset(city.pois, trips.journeys);
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig());
  ASSERT_FALSE(replay.stream.empty());

  // The oracle: one batch plan-mode snapshot over bootstrap + batch
  // stays. Every streamed run below must land on these bytes exactly.
  auto oracle_data = MakeOracleDataset(bootstrap, replay.traces);
  CsdSnapshot oracle(oracle_data, TestSnapshotOptions(),
                     shard::PlanForCity(bootstrap->pois, 4,
                                        TestSnapshotOptions().miner.csd));
  std::string oracle_bytes = SerializeDiagram(oracle.diagram(), "oracle");

  // Time-merged stream, mid-stream ticks.
  StreamRig merged = MakeRig(bootstrap, 4);
  EXPECT_EQ(RunStreamToCheckpoint(merged, replay.stream, 1500, "merged"),
            oracle_bytes);

  // Shuffled interleavings at different tick cadences: per-user order
  // is the only ordering the contract needs.
  for (uint64_t seed : {uint64_t{101}, uint64_t{202}}) {
    std::vector<ReplayFix> shuffled = ShuffledStream(replay.traces, seed);
    StreamRig rig = MakeRig(bootstrap, 4);
    EXPECT_EQ(RunStreamToCheckpoint(rig, shuffled,
                                    seed == 101 ? 900 : 2500,
                                    "shuffled" + std::to_string(seed)),
              oracle_bytes);
  }

  // Thread-count invariance: the tiled checkpoint build is byte-stable
  // across pool widths, so the streamed result is too.
  SetDefaultParallelism(1);
  StreamRig serial = MakeRig(bootstrap, 4);
  std::string serial_bytes =
      RunStreamToCheckpoint(serial, replay.stream, 1500, "serial");
  SetDefaultParallelism(4);
  StreamRig parallel = MakeRig(bootstrap, 4);
  std::string parallel_bytes =
      RunStreamToCheckpoint(parallel, replay.stream, 1500, "parallel");
  SetDefaultParallelism(0);
  EXPECT_EQ(serial_bytes, oracle_bytes);
  EXPECT_EQ(parallel_bytes, oracle_bytes);
}

TEST(StreamDifferentialTest, DecayOffBuildsAreByteIdenticalAcrossAllPaths) {
  // The decay-off contract, spelled out across every build path at two
  // pool widths: with half_life_s = 0 set EXPLICITLY, a monolithic
  // build (no plan), a tiled build, and a streamed checkpoint all
  // serialize to the same bytes — streaming plus the decay plumbing
  // changed nothing about Eq. 3 as published.
  SyntheticCity city = MakeReplayCity();
  TripConfig trip_config;
  trip_config.num_agents = 300;
  trip_config.num_days = 2;
  trip_config.seed = 62;
  TripDataset trips = GenerateTrips(city, trip_config);
  std::shared_ptr<const ServeDataset> bootstrap =
      serve::MakeServeDataset(city.pois, trips.journeys);
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig(8));

  auto options = TestSnapshotOptions();
  options.miner.csd.decay.half_life_s = 0.0;
  auto oracle_data = MakeOracleDataset(bootstrap, replay.traces);
  shard::ShardPlan plan =
      shard::PlanForCity(bootstrap->pois, 4, options.miner.csd);

  std::string expected;
  for (int threads : {1, 4}) {
    SetDefaultParallelism(static_cast<size_t>(threads));
    std::string tag = std::to_string(threads);
    CsdSnapshot monolithic(oracle_data, options, MonolithicPlan(oracle_data));
    CsdSnapshot tiled(oracle_data, options, plan);
    std::string monolithic_bytes =
        SerializeDiagram(monolithic.diagram(), "mono" + tag);
    if (expected.empty()) expected = monolithic_bytes;
    EXPECT_EQ(monolithic_bytes, expected) << "monolithic, " << tag;
    EXPECT_EQ(SerializeDiagram(tiled.diagram(), "tiled" + tag), expected)
        << "tiled, " << tag;
    StreamRig rig = MakeRig(bootstrap, 4, options);
    EXPECT_EQ(RunStreamToCheckpoint(rig, replay.stream, 1500,
                                    "streamed" + tag),
              expected)
        << "streamed, " << tag;
  }
  SetDefaultParallelism(0);
}

TEST(StreamDifferentialTest, DecayOnCheckpointReproducesBatchOracleBytes) {
  // Decay on end to end: the streamed checkpoint decays against its
  // publish watermark, the batch oracle against ResolveDecayAsOf of the
  // same stay set — the same instant — so the bytes still match
  // exactly. This pins the whole decay data path: the accumulator's
  // watermark, the generation's pinned decay_as_of, and the exact
  // recompute in the checkpoint build.
  SyntheticCity city = MakeReplayCity();
  TripConfig trip_config;
  trip_config.num_agents = 300;
  trip_config.num_days = 2;
  trip_config.seed = 62;
  TripDataset trips = GenerateTrips(city, trip_config);
  std::shared_ptr<const ServeDataset> bootstrap =
      serve::MakeServeDataset(city.pois, trips.journeys);
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig(8));

  auto options = TestSnapshotOptions();
  options.miner.csd.decay.half_life_s = 3600.0;
  auto oracle_data = MakeOracleDataset(bootstrap, replay.traces);
  ASSERT_GT(oracle_data->decay_as_of, 0);
  CsdSnapshot oracle(oracle_data, options,
                     shard::PlanForCity(bootstrap->pois, 4,
                                        options.miner.csd));
  std::string oracle_bytes =
      SerializeDiagram(oracle.diagram(), "decay_oracle");

  StreamRig rig = MakeRig(bootstrap, 4, options);
  EXPECT_EQ(RunStreamToCheckpoint(rig, replay.stream, 1500, "decay_stream"),
            oracle_bytes);

  // And the decayed build is genuinely different evidence: the same
  // dataset with decay off lands elsewhere.
  auto decay_off = TestSnapshotOptions();
  CsdSnapshot undecayed(oracle_data, decay_off,
                        shard::PlanForCity(bootstrap->pois, 4,
                                           decay_off.miner.csd));
  EXPECT_NE(SerializeDiagram(undecayed.diagram(), "decay_off"),
            oracle_bytes);
}

TEST(StreamDifferentialTest, GenerationsShareTheBootstrapPoiDatabase) {
  // P never changes under a stream: every generation a tick publishes
  // points at the bootstrap's POI database instead of rebuilding it, and
  // sharing it must not move the checkpoint off the batch oracle.
  SyntheticCity city = MakeReplayCity();
  TripConfig trip_config;
  trip_config.num_agents = 300;
  trip_config.num_days = 2;
  trip_config.seed = 62;
  TripDataset trips = GenerateTrips(city, trip_config);
  std::shared_ptr<const ServeDataset> bootstrap =
      serve::MakeServeDataset(city.pois, trips.journeys);
  ReplaySet replay = MakeReplaySet(city, MakeReplayConfig(8));
  ASSERT_FALSE(replay.stream.empty());

  auto oracle_data = MakeOracleDataset(bootstrap, replay.traces);
  CsdSnapshot oracle(oracle_data, TestSnapshotOptions(),
                     shard::PlanForCity(bootstrap->pois, 4,
                                        TestSnapshotOptions().miner.csd));
  std::string oracle_bytes = SerializeDiagram(oracle.diagram(), "oracle");

  StreamRig rig = MakeRig(bootstrap, 4);
  for (const ReplayFix& rf : replay.stream) {
    ASSERT_TRUE(rig.ingestor
                    ->IngestFixes(rf.user_id,
                                  std::span<const GpsPoint>(&rf.fix, 1))
                    .ok());
  }
  rig.ingestor->FlushAll();
  RebuildTickReport incremental = rig.ingestor->PublishTick();
  ASSERT_TRUE(incremental.status.ok()) << incremental.status.message();
  EXPECT_FALSE(incremental.checkpoint);
  ASSERT_GT(incremental.shards_rebuilt, 0u);

  RebuildTickReport checkpoint =
      rig.ingestor->PublishTick(/*force_checkpoint=*/true);
  ASSERT_TRUE(checkpoint.status.ok()) << checkpoint.status.message();
  ASSERT_TRUE(checkpoint.checkpoint);
  std::shared_ptr<const CsdSnapshot> global = rig.store->Acquire();
  EXPECT_EQ(global->version(), checkpoint.version);
  EXPECT_EQ(global->data().poi_db, bootstrap->poi_db);
  EXPECT_EQ(&global->data().pois, &bootstrap->pois);
  EXPECT_EQ(SerializeDiagram(global->diagram(), "shared"), oracle_bytes);
  rig.service->Shutdown();
}

TEST(StreamDifferentialTest, IncrementalTickDivergesOnlyOnFringe) {
  SyntheticCity city = MakeReplayCity();
  TripConfig trip_config;
  trip_config.num_agents = 300;
  trip_config.num_days = 2;
  trip_config.seed = 62;
  TripDataset trips = GenerateTrips(city, trip_config);
  std::shared_ptr<const ServeDataset> bootstrap =
      serve::MakeServeDataset(city.pois, trips.journeys);

  // Cluster the replay into one corner so the delta dirties a strict
  // subset of the plan — the setting where "incremental" means anything.
  ReplayConfig replay_config = MakeReplayConfig();
  replay_config.region.Extend(Vec2{300.0, 300.0});
  replay_config.region.Extend(Vec2{2100.0, 2100.0});
  ReplaySet replay = MakeReplaySet(city, replay_config);

  StreamRig rig = MakeRig(bootstrap, 4);
  for (const ReplayFix& rf : replay.stream) {
    ASSERT_TRUE(rig.ingestor
                    ->IngestFixes(rf.user_id,
                                  std::span<const GpsPoint>(&rf.fix, 1))
                    .ok());
  }
  rig.ingestor->FlushAll();
  ASSERT_GT(rig.ingestor->pending_stays(), 0u);

  RebuildTickReport incremental = rig.ingestor->PublishTick();
  ASSERT_TRUE(incremental.status.ok()) << incremental.status.message();
  EXPECT_FALSE(incremental.checkpoint);
  ASSERT_GT(incremental.shards_rebuilt, 0u);
  EXPECT_LT(incremental.shards_rebuilt, rig.store->num_shards());

  // Bounded divergence, spelled out per lane: dirty lanes advanced,
  // untouched lanes still serve the bootstrap generation (stale but
  // consistent — never an error, never a torn view).
  std::vector<bool> rebuilt(rig.store->num_shards(), false);
  size_t advanced = 0;
  for (size_t s = 0; s < rig.store->num_shards(); ++s) {
    if (rig.store->shard_version(s) > rig.bootstrap_version) {
      rebuilt[s] = true;
      ++advanced;
    } else {
      EXPECT_EQ(rig.store->shard_version(s), rig.bootstrap_version);
    }
  }
  EXPECT_EQ(advanced, incremental.shards_rebuilt);

  // Annotations routed into a rebuilt tile see the delta's effect before
  // any checkpoint. Tile-local unit NUMBERING is lane-private, so the
  // id-independent comparison is the semantic property of the winning
  // unit: between the incremental tick and the checkpoint, the answers
  // may diverge only on the halo fringe (eps-chains crossing tile
  // bounds), a small fraction of the probes — and the checkpoint then
  // resets every lane to the exact batch build.
  std::vector<StayPoint> probes;
  for (const StayPoint& stay : rig.ingestor->accumulator().CanonicalStays()) {
    if (rebuilt[rig.plan.ShardOf(stay.position)]) {
      probes.push_back(stay);
      if (probes.size() == 32) break;
    }
  }
  ASSERT_FALSE(probes.empty());
  auto annotate = [&](const std::vector<StayPoint>& stays) {
    auto future_or = rig.service->AnnotateStayPoints(stays);
    EXPECT_TRUE(future_or.ok()) << future_or.status().message();
    serve::AnnotateResult result = future_or.value().get();
    EXPECT_TRUE(result.status.ok()) << result.status.message();
    std::vector<uint32_t> semantics;
    semantics.reserve(result.stays.size());
    for (const StayPoint& annotated : result.stays) {
      semantics.push_back(annotated.semantic.bits());
    }
    return semantics;
  };
  std::vector<uint32_t> before = annotate(probes);

  RebuildTickReport checkpoint =
      rig.ingestor->PublishTick(/*force_checkpoint=*/true);
  ASSERT_TRUE(checkpoint.status.ok()) << checkpoint.status.message();
  std::vector<uint32_t> after = annotate(probes);
  ASSERT_EQ(before.size(), after.size());
  size_t mismatches = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) ++mismatches;
  }
  EXPECT_LE(static_cast<double>(mismatches),
            0.2 * static_cast<double>(probes.size()))
      << mismatches << " of " << probes.size()
      << " dirty-tile annotations changed at the checkpoint — fringe "
         "divergence is supposed to be a thin boundary effect";
  rig.service->Shutdown();
}

}  // namespace
}  // namespace csd::stream
