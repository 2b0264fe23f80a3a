// Equivalence oracle for the delta-aware in-tile engine
// (core/incremental_csd.h): an Apply() that absorbs a stay delta into
// cached cluster/unit structure must serialize byte-identically to a
// from-scratch CsdBuilder::Build over the same inputs — on the first
// build, on an incremental absorb below the churn threshold, on a
// churn-threshold fallback, and after the self-heals triggered by a
// non-subsequence stay diff or a changed POI set. The time-decay weight itself is pinned
// here too (exact powers of two, bit-exact epoch composition).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/city_semantic_diagram.h"
#include "core/incremental_csd.h"
#include "core/popularity.h"
#include "io/binary_io.h"
#include "poi/poi_database.h"
#include "synth/city_generator.h"
#include "synth/trace_replayer.h"
#include "traj/stay_point_detector.h"

namespace csd {
namespace {

std::string SerializeDiagram(const CitySemanticDiagram& diagram,
                             const std::string& tag) {
  std::string path = ::testing::TempDir() + "/inc_" + tag + ".bin";
  Status written = WriteCsdBinary(path, diagram);
  EXPECT_TRUE(written.ok()) << written.message();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

/// Same scale as the streaming differential harness: sparse enough that
/// the ε∪merge components stay small, so a corner delta dirties a strict
/// subset of the city.
SyntheticCity MakeCity() {
  CityConfig config;
  config.num_pois = 2000;
  config.width_m = 6000.0;
  config.height_m = 6000.0;
  config.seed = 7;
  return GenerateCity(config);
}

std::vector<StayPoint> ReplayStays(const SyntheticCity& city,
                                   const ReplayConfig& config) {
  ReplaySet replay = MakeReplaySet(city, config);
  std::vector<StayPoint> stays;
  for (const Trajectory& trace : replay.traces) {
    std::vector<StayPoint> user_stays = DetectStayPoints(trace);
    stays.insert(stays.end(), user_stays.begin(), user_stays.end());
  }
  return stays;
}

/// The base evidence: a city-wide replay (day 0).
std::vector<StayPoint> MakeWaveOne(const SyntheticCity& city) {
  ReplayConfig config;
  config.num_users = 24;
  config.stops_per_user = 4;
  return ReplayStays(city, config);
}

/// A small, spatially clustered delta (day 1): few users in one corner,
/// so the dirty-component fraction sits well below the churn threshold.
std::vector<StayPoint> MakeWaveTwo(const SyntheticCity& city) {
  ReplayConfig config;
  config.num_users = 4;
  config.stops_per_user = 2;
  config.seed = 4321;
  config.start_time = 24 * 3600;
  config.region.Extend(Vec2{300.0, 300.0});
  config.region.Extend(Vec2{900.0, 900.0});
  return ReplayStays(city, config);
}

std::vector<StayPoint> Concat(const std::vector<StayPoint>& a,
                              const std::vector<StayPoint>& b) {
  std::vector<StayPoint> all = a;
  all.insert(all.end(), b.begin(), b.end());
  return all;
}

TEST(DecayWeightTest, ExactPowersOfTwoAndFutureClamp) {
  const double h = 3600.0;
  EXPECT_EQ(DecayWeight(1000, 1000, h), 1.0);
  EXPECT_EQ(DecayWeight(5000, 1000, h), 1.0);  // future stays clamp to 1
  EXPECT_EQ(DecayWeight(1000, 1000 + 3600, h), 0.5);
  EXPECT_EQ(DecayWeight(1000, 1000 + 2 * 3600, h), 0.25);
  // Composition is bit-exact when the step between instants is a
  // multiple of the half-life: a later generation re-weights every stay
  // by one common factor, the scale the in-tile engine's reuse relies on.
  const Timestamp t = 777;
  const Timestamp a = 10000;
  const Timestamp b = a + 3600;
  EXPECT_EQ(DecayWeight(t, b, h), DecayWeight(t, a, h) * DecayWeight(a, b, h));
}

TEST(DecayWeightTest, ResolveDecayAsOfPicksNewestStay) {
  EXPECT_EQ(ResolveDecayAsOf({}), 0);
  std::vector<StayPoint> stays;
  stays.emplace_back(Vec2{0.0, 0.0}, Timestamp{500});
  stays.emplace_back(Vec2{1.0, 1.0}, Timestamp{9000});
  stays.emplace_back(Vec2{2.0, 2.0}, Timestamp{700});
  EXPECT_EQ(ResolveDecayAsOf(stays), 9000);
}

TEST(IncrementalTileCsdTest, FirstApplyMatchesDirectBuildBytes) {
  SyntheticCity city = MakeCity();
  PoiDatabase pois(city.pois);
  std::vector<StayPoint> stays = MakeWaveOne(city);
  ASSERT_FALSE(stays.empty());

  IncrementalTileCsd engine(IncrementalTileCsd::Options{});
  IncrementalTileCsd::TickStats tick;
  CitySemanticDiagram incremental = engine.Apply(pois, stays, 0, &tick);
  EXPECT_FALSE(tick.incremental);  // nothing cached yet: a full build
  EXPECT_EQ(engine.generations(), 1u);

  CitySemanticDiagram direct = CsdBuilder().Build(pois, stays);
  EXPECT_EQ(SerializeDiagram(incremental, "first_engine"),
            SerializeDiagram(direct, "first_direct"));
}

TEST(IncrementalTileCsdTest, IncrementalAbsorbMatchesFullRebuildBytes) {
  SyntheticCity city = MakeCity();
  PoiDatabase pois(city.pois);
  std::vector<StayPoint> wave1 = MakeWaveOne(city);
  std::vector<StayPoint> wave2 = MakeWaveTwo(city);
  ASSERT_FALSE(wave2.empty());
  std::vector<StayPoint> all = Concat(wave1, wave2);

  IncrementalTileCsd engine(IncrementalTileCsd::Options{});
  engine.Apply(pois, wave1);
  IncrementalTileCsd::TickStats tick;
  CitySemanticDiagram absorbed = engine.Apply(pois, all, 0, &tick);
  // The delta must exercise the incremental path, not vacuously fall
  // back — and must dirty a strict subset of the city.
  EXPECT_TRUE(tick.incremental);
  EXPECT_EQ(tick.new_stays, wave2.size());
  EXPECT_GT(tick.dirty_components, 0u);
  EXPECT_GT(tick.dirty_pois, 0u);
  EXPECT_LT(tick.churn, engine.options().churn_threshold);

  // Oracle 1: a fresh engine's full build over the final stay list.
  IncrementalTileCsd fresh(IncrementalTileCsd::Options{});
  CitySemanticDiagram full = fresh.Apply(pois, all);
  // Oracle 2: the plain serial builder, no caches at all.
  CitySemanticDiagram direct = CsdBuilder().Build(pois, all);

  std::string absorbed_bytes = SerializeDiagram(absorbed, "absorb");
  EXPECT_EQ(absorbed_bytes, SerializeDiagram(full, "absorb_full"));
  EXPECT_EQ(absorbed_bytes, SerializeDiagram(direct, "absorb_direct"));
}

TEST(IncrementalTileCsdTest, ChurnFallbackMatchesFullRebuildBytes) {
  SyntheticCity city = MakeCity();
  PoiDatabase pois(city.pois);
  std::vector<StayPoint> wave1 = MakeWaveOne(city);
  std::vector<StayPoint> all = Concat(wave1, MakeWaveTwo(city));

  // A threshold of zero forces every non-empty delta over the line: the
  // engine re-stages the whole tile against its cached CSRs.
  IncrementalTileCsd::Options options;
  options.churn_threshold = 0.0;
  IncrementalTileCsd engine(options);
  engine.Apply(pois, wave1);
  IncrementalTileCsd::TickStats tick;
  CitySemanticDiagram fallback = engine.Apply(pois, all, 0, &tick);
  EXPECT_FALSE(tick.incremental);
  EXPECT_GT(tick.new_stays, 0u);
  // The fallback keeps its measured dirty numbers (they explain WHY it
  // fell back) instead of overwriting them with full-build placeholders.
  EXPECT_GT(tick.dirty_pois, 0u);

  CitySemanticDiagram direct = CsdBuilder().Build(pois, all);
  EXPECT_EQ(SerializeDiagram(fallback, "churn"),
            SerializeDiagram(direct, "churn_direct"));
}

TEST(IncrementalTileCsdTest, SelfHealsOnNonSubsequenceStayDiff) {
  SyntheticCity city = MakeCity();
  PoiDatabase pois(city.pois);
  std::vector<StayPoint> wave1 = MakeWaveOne(city);
  ASSERT_GT(wave1.size(), 1u);

  IncrementalTileCsd engine(IncrementalTileCsd::Options{});
  engine.Apply(pois, wave1);

  // Dropping the first stay violates the supersequence contract; the
  // engine must not trust its caches, and the healed build must equal a
  // from-scratch one over the reduced list.
  std::vector<StayPoint> reduced(wave1.begin() + 1, wave1.end());
  IncrementalTileCsd::TickStats tick;
  CitySemanticDiagram healed = engine.Apply(pois, reduced, 0, &tick);
  EXPECT_FALSE(tick.incremental);

  CitySemanticDiagram direct = CsdBuilder().Build(pois, reduced);
  EXPECT_EQ(SerializeDiagram(healed, "heal"),
            SerializeDiagram(direct, "heal_direct"));

  // And the engine is healthy again afterwards: a further appended delta
  // absorbs incrementally and still matches the serial builder.
  std::vector<StayPoint> extended = Concat(reduced, MakeWaveTwo(city));
  CitySemanticDiagram absorbed = engine.Apply(pois, extended, 0, &tick);
  EXPECT_TRUE(tick.incremental);
  EXPECT_EQ(SerializeDiagram(absorbed, "heal_absorb"),
            SerializeDiagram(CsdBuilder().Build(pois, extended),
                             "heal_absorb_direct"));
}

TEST(IncrementalTileCsdTest, SelfHealsOnChangedPoiSet) {
  SyntheticCity city = MakeCity();
  PoiDatabase pois(city.pois);
  std::vector<StayPoint> wave1 = MakeWaveOne(city);

  IncrementalTileCsd engine(IncrementalTileCsd::Options{});
  CitySemanticDiagram first = engine.Apply(pois, wave1);
  ASSERT_GT(first.num_units(), 0u);

  // Same POI count, one clustered POI moved across the city: a new
  // dataset cut into the same tile. Cached connectivity and clusters are
  // stale, so the engine must rebuild from the POIs it was handed.
  std::vector<Poi> moved = city.pois;
  PoiId target = first.units().front().pois.front();
  moved[target].position.x = 6000.0 - moved[target].position.x;
  moved[target].position.y = 6000.0 - moved[target].position.y;
  PoiDatabase moved_pois(moved);
  ASSERT_EQ(moved_pois.size(), pois.size());

  IncrementalTileCsd::TickStats tick;
  CitySemanticDiagram healed = engine.Apply(moved_pois, wave1, 0, &tick);
  EXPECT_FALSE(tick.incremental);
  EXPECT_EQ(SerializeDiagram(healed, "poi_heal"),
            SerializeDiagram(CsdBuilder().Build(moved_pois, wave1),
                             "poi_heal_direct"));

  // The healed engine absorbs the next appended delta incrementally.
  std::vector<StayPoint> extended = Concat(wave1, MakeWaveTwo(city));
  CitySemanticDiagram absorbed =
      engine.Apply(moved_pois, extended, 0, &tick);
  EXPECT_TRUE(tick.incremental);
  EXPECT_EQ(SerializeDiagram(absorbed, "poi_heal_absorb"),
            SerializeDiagram(CsdBuilder().Build(moved_pois, extended),
                             "poi_heal_absorb_direct"));
}

TEST(IncrementalTileCsdTest, DecayOnIncrementalMatchesFullRecluster) {
  SyntheticCity city = MakeCity();
  PoiDatabase pois(city.pois);
  std::vector<StayPoint> wave1 = MakeWaveOne(city);
  std::vector<StayPoint> wave2 = MakeWaveTwo(city);
  std::vector<StayPoint> all = Concat(wave1, wave2);

  IncrementalTileCsd::Options options;
  options.build.decay.half_life_s = 3600.0;
  // The as_of instant is pinned by the caller on every Apply, the way a
  // streamed generation pins its city-wide watermark.
  const Timestamp as_of_1 = ResolveDecayAsOf(wave1);
  const Timestamp as_of_2 = ResolveDecayAsOf(all);
  ASSERT_GT(as_of_2, as_of_1);  // the delta must move the clock

  IncrementalTileCsd engine(options);
  engine.Apply(pois, wave1, as_of_1);
  IncrementalTileCsd::TickStats tick;
  CitySemanticDiagram absorbed = engine.Apply(pois, all, as_of_2, &tick);
  EXPECT_TRUE(tick.incremental);

  IncrementalTileCsd fresh(options);
  CitySemanticDiagram full = fresh.Apply(pois, all, as_of_2);

  CsdBuildOptions direct_options;
  direct_options.decay.half_life_s = 3600.0;
  direct_options.decay.as_of = as_of_2;
  CitySemanticDiagram direct = CsdBuilder(direct_options).Build(pois, all);

  // Popularity is recomputed exactly every Apply, and no ratio of this
  // deterministic workload sits within an ulp of a stage threshold, so
  // the decayed absorb reproduces the full recluster byte for byte (the
  // bounded-divergence caveat of docs/streaming.md never fires here).
  std::string absorbed_bytes = SerializeDiagram(absorbed, "decay");
  EXPECT_EQ(absorbed_bytes, SerializeDiagram(full, "decay_full"));
  EXPECT_EQ(absorbed_bytes, SerializeDiagram(direct, "decay_direct"));
}

TEST(IncrementalTileCsdTest, DecayOffIsByteIdenticalToUndecayedBuild) {
  SyntheticCity city = MakeCity();
  PoiDatabase pois(city.pois);
  std::vector<StayPoint> stays = MakeWaveOne(city);

  // half_life_s = 0 must be byte-for-byte the published Eq. 3 — not just
  // approximately weight-1.
  CsdBuildOptions decay_off;
  decay_off.decay.half_life_s = 0.0;
  decay_off.decay.as_of = ResolveDecayAsOf(stays);
  EXPECT_EQ(SerializeDiagram(CsdBuilder(decay_off).Build(pois, stays),
                             "off_explicit"),
            SerializeDiagram(CsdBuilder().Build(pois, stays), "off_default"));
}

}  // namespace
}  // namespace csd
