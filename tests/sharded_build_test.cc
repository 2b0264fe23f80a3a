// Byte-identity of the sharded CSD build: per-tile stage caches run
// through the component stage runner must reproduce the monolithic
// diagram bit for bit — across shard counts (1, a prime strip, 2×2) and
// across worker-thread counts. The serialized-snapshot comparison is the
// strongest form of the claim: not "equivalent", the same bytes. The
// plan-mode serving snapshot extends the claim to the mined pattern set
// and to per-shard annotation (docs/sharding.md).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/city_semantic_diagram.h"
#include "serve/snapshot.h"
#include "shard/shard_plan.h"
#include "shard/sharded_build.h"
#include "tests/serve_test_helpers.h"
#include "util/parallel.h"

namespace csd::shard {
namespace {

using serve::CsdSnapshot;
using serve::ServeDataset;
using serve::testing::MakeTestDataset;
using serve::testing::MonolithicPlan;
using serve::testing::SerializeDiagram;
using serve::testing::TestSnapshotOptions;

/// The strong comparison: serialized bytes equal, plus the structural
/// fields spelled out so a mismatch names what diverged.
void ExpectDiagramsIdentical(const CitySemanticDiagram& a,
                             const CitySemanticDiagram& b,
                             const std::string& tag) {
  ASSERT_EQ(a.num_units(), b.num_units()) << tag;
  ASSERT_EQ(a.popularities().size(), b.popularities().size()) << tag;
  for (size_t p = 0; p < a.popularities().size(); ++p) {
    ASSERT_EQ(a.popularities()[p], b.popularities()[p])
        << tag << ": popularity of poi " << p;
    ASSERT_EQ(a.UnitOfPoi(static_cast<PoiId>(p)),
              b.UnitOfPoi(static_cast<PoiId>(p)))
        << tag << ": unit of poi " << p;
  }
  for (size_t u = 0; u < a.num_units(); ++u) {
    ASSERT_EQ(a.unit(static_cast<UnitId>(u)).pois,
              b.unit(static_cast<UnitId>(u)).pois)
        << tag << ": members of unit " << u;
  }
  EXPECT_EQ(SerializeDiagram(a, tag + "_a"), SerializeDiagram(b, tag + "_b"))
      << tag << ": serialized diagrams differ";
}

TEST(ShardedBuildTest, MatchesMonolithicAcrossShardCounts) {
  auto dataset = MakeTestDataset();
  CsdBuildOptions options;
  CitySemanticDiagram monolithic =
      CsdBuilder(options).Build(dataset->pois, dataset->stays);
  ASSERT_GT(monolithic.num_units(), 0u);

  // 1 (degenerate), 3 (prime: a 1×3 strip), 4 (2×2) — every layout must
  // stitch back to the same bytes.
  for (size_t k : {size_t{1}, size_t{3}, size_t{4}}) {
    ShardPlan plan = PlanForCity(dataset->pois, k, options);
    ASSERT_EQ(plan.num_shards(), k);
    CitySemanticDiagram sharded =
        ShardedCsdBuild(dataset->pois, dataset->stays, plan, options);
    ExpectDiagramsIdentical(monolithic, sharded,
                            "k=" + std::to_string(k));
  }
}

TEST(ShardedBuildTest, IdenticalAtOneAndManyThreads) {
  auto dataset = MakeTestDataset();
  CsdBuildOptions options;
  ShardPlan plan = PlanForCity(dataset->pois, 4, options);

  SetDefaultParallelism(1);
  CitySemanticDiagram serial =
      ShardedCsdBuild(dataset->pois, dataset->stays, plan, options);
  SetDefaultParallelism(4);
  CitySemanticDiagram parallel =
      ShardedCsdBuild(dataset->pois, dataset->stays, plan, options);
  SetDefaultParallelism(0);

  ExpectDiagramsIdentical(serial, parallel, "threads");
}

/// Pattern and annotation identity of the plan-mode serving snapshot,
/// used at both thread counts below.
void ExpectSnapshotsIdentical(const std::shared_ptr<const ServeDataset>& data,
                              const ShardPlan& plan) {
  auto options = TestSnapshotOptions();
  CsdSnapshot monolithic(data, options, MonolithicPlan(data));
  CsdSnapshot sharded(data, options, plan);
  ASSERT_NE(sharded.plan(), nullptr);

  // Pattern set: same count, and per pattern the representative stays,
  // the groups, and the supporting trajectory ids — field for field.
  ASSERT_GT(monolithic.patterns().size(), 0u)
      << "test dataset mined no patterns; thresholds need lowering";
  ASSERT_EQ(monolithic.patterns().size(), sharded.patterns().size());
  for (size_t i = 0; i < monolithic.patterns().size(); ++i) {
    const FineGrainedPattern& a = monolithic.pattern(i);
    const FineGrainedPattern& b = sharded.pattern(i);
    ASSERT_EQ(a.supporting, b.supporting) << "pattern " << i;
    ASSERT_EQ(a.representative.size(), b.representative.size())
        << "pattern " << i;
    for (size_t s = 0; s < a.representative.size(); ++s) {
      ASSERT_EQ(a.representative[s].position.x, b.representative[s].position.x);
      ASSERT_EQ(a.representative[s].position.y, b.representative[s].position.y);
      ASSERT_EQ(a.representative[s].time, b.representative[s].time);
      ASSERT_EQ(a.representative[s].semantic, b.representative[s].semantic);
    }
    ASSERT_EQ(a.groups.size(), b.groups.size()) << "pattern " << i;
  }

  // Annotation: every stay routed to its owning shard's subset annotator
  // answers exactly what the monolithic city-wide annotator does.
  size_t checked = 0;
  for (const StayPoint& stay : data->stays) {
    if (++checked > 500) break;
    size_t shard = plan.ShardOf(stay.position);
    UnitId mono_unit = kNoUnit;
    UnitId shard_unit = kNoUnit;
    SemanticProperty mono_sem =
        monolithic.annotator().Annotate(stay.position, &mono_unit);
    SemanticProperty shard_sem =
        sharded.annotator_for_shard(shard).Annotate(stay.position,
                                                    &shard_unit);
    ASSERT_EQ(mono_unit, shard_unit)
        << "stay at (" << stay.position.x << ", " << stay.position.y << ")";
    ASSERT_EQ(mono_sem, shard_sem);
  }
}

TEST(ShardedBuildTest, SnapshotPatternsAndAnnotationMatchMonolithic) {
  auto dataset = MakeTestDataset();
  ShardPlan plan =
      PlanForCity(dataset->pois, 4, TestSnapshotOptions().miner.csd);

  SetDefaultParallelism(1);
  ExpectSnapshotsIdentical(dataset, plan);
  SetDefaultParallelism(4);
  ExpectSnapshotsIdentical(dataset, plan);
  SetDefaultParallelism(0);
}

}  // namespace
}  // namespace csd::shard
