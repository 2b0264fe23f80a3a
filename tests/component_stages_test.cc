// Stage-order oracle for the component stage runner
// (core/component_stages.h): CsdBuilder::Build runs clustering,
// purification and merging component by component in batches and splices
// the batches by key; its serialized diagram must equal one serial
// composition of the stage functions over the whole city —
// PopularityBasedClustering → SemanticPurification → SemanticUnitMerging
// → MakeSemanticUnit — byte for byte. Checked without caches and with
// tiled stage caches (K = 3, 4), at 1 and 4 lanes (4 and 16 batches), over
// cities whose components straddle tile borders, one all-connected city
// and an empty one, and under every stage switch that changes the output
// shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/city_semantic_diagram.h"
#include "core/component_stages.h"
#include "io/binary_io.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "poi/poi_database.h"
#include "shard/sharded_build.h"
#include "synth/city_generator.h"
#include "util/parallel.h"

namespace csd {
namespace {

std::string Serialize(const CitySemanticDiagram& diagram,
                      const std::string& tag) {
  std::string path = ::testing::TempDir() + "/component_stages_" + tag +
                     ".bin";
  Status written = WriteCsdBinary(path, diagram);
  EXPECT_TRUE(written.ok()) << written.message();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

/// The oracle: the stage functions composed serially over the whole city,
/// exactly as CsdBuilder::Build composed them before the runner.
CitySemanticDiagram SerialComposition(const PoiDatabase& pois,
                                      const std::vector<StayPoint>& stays,
                                      const CsdBuildOptions& raw,
                                      const CsdStageCaches* caches) {
  CsdBuildOptions options = CsdBuilder(raw).options();
  PopularityDecayOptions decay = options.decay;
  if (decay.enabled() && decay.as_of == 0) {
    decay.as_of = ResolveDecayAsOf(stays);
  }
  PopularityModel popularity =
      caches != nullptr
          ? PopularityModel(caches->popularity, options.r3sigma)
          : PopularityModel(pois, stays, options.r3sigma, decay);
  PopularityClusteringResult coarse =
      caches != nullptr
          ? PopularityBasedClustering(pois, popularity, options.clustering,
                                      caches->eps_offsets, caches->eps_flat)
          : PopularityBasedClustering(pois, popularity, options.clustering);
  std::vector<std::vector<PoiId>> purified =
      options.enable_purification
          ? SemanticPurification(coarse.clusters, pois, options.purification)
          : coarse.clusters;
  std::vector<std::vector<PoiId>> merged;
  if (!options.enable_merging) {
    merged = purified;
  } else if (caches != nullptr) {
    merged = SemanticUnitMerging(purified, coarse.unclustered, pois,
                                 popularity, options.merging,
                                 caches->merge_offsets, caches->merge_flat);
  } else {
    merged = SemanticUnitMerging(purified, coarse.unclustered, pois,
                                 popularity, options.merging);
  }
  std::vector<SemanticUnit> units;
  for (size_t i = 0; i < merged.size(); ++i) {
    units.push_back(MakeSemanticUnit(static_cast<UnitId>(i),
                                     std::move(merged[i]), pois, popularity));
  }
  return CitySemanticDiagram(&pois, std::move(units),
                             popularity.popularities());
}

/// Stays scattered around a deterministic subset of POIs, with times, so
/// popularity varies and decay has something to weigh.
std::vector<StayPoint> MakeStays(const PoiDatabase& pois, size_t count) {
  std::vector<StayPoint> stays;
  if (pois.size() == 0) return stays;
  for (size_t i = 0; i < count; ++i) {
    const Vec2& at = pois.poi(static_cast<PoiId>((i * 7919) % pois.size()))
                         .position;
    double dx = static_cast<double>((i * 37) % 41) - 20.0;
    double dy = static_cast<double>((i * 53) % 43) - 21.0;
    stays.emplace_back(Vec2{at.x + dx, at.y + dy},
                       static_cast<Timestamp>(1000 + 97 * i));
  }
  return stays;
}

/// A generated city dense enough that many components span tile borders.
std::vector<Poi> StraddlingCity() {
  CityConfig config;
  config.num_pois = 2500;
  config.width_m = 3000.0;
  config.height_m = 3000.0;
  config.seed = 11;
  return GenerateCity(config).pois;
}

/// A lattice at 12 m spacing: one ε∪merge component holding every POI,
/// with mixed categories so purification splits and merging decides.
std::vector<Poi> AllConnectedCity() {
  std::vector<Poi> pois;
  for (uint32_t i = 0; i < 400; ++i) {
    Vec2 at{12.0 * (i % 20), 12.0 * (i / 20)};
    auto minor = static_cast<MinorCategoryId>(((i / 7) * 13) % 98);
    pois.emplace_back(i, at, minor);
  }
  return pois;
}

struct Variant {
  std::string name;
  CsdBuildOptions options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"default", {}});
  Variant no_purification{"no_purification", {}};
  no_purification.options.enable_purification = false;
  variants.push_back(no_purification);
  Variant no_merging{"no_merging", {}};
  no_merging.options.enable_merging = false;
  variants.push_back(no_merging);
  Variant keep_singletons{"keep_singletons", {}};
  keep_singletons.options.merging.keep_unmerged_singletons = true;
  variants.push_back(keep_singletons);
  Variant no_absorb{"no_absorb", {}};
  no_absorb.options.merging.absorb_unclustered = false;
  variants.push_back(no_absorb);
  Variant decay{"decay", {}};
  decay.options.decay.half_life_s = 3600.0;
  variants.push_back(decay);
  return variants;
}

void ExpectRunnerMatchesSerialComposition(const std::vector<Poi>& records,
                                          const std::string& city) {
  PoiDatabase pois(records);
  std::vector<StayPoint> stays = MakeStays(pois, pois.size() / 2 + 50);
  for (const Variant& variant : Variants()) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetDefaultParallelism(threads);
      std::string tag =
          city + "_" + variant.name + "_t" + std::to_string(threads);
      std::string oracle = Serialize(
          SerialComposition(pois, stays, variant.options, nullptr), tag);
      EXPECT_EQ(Serialize(CsdBuilder(variant.options).Build(pois, stays),
                          tag + "_built"),
                oracle)
          << tag << ": uncached build";
      if (pois.size() == 0) continue;
      for (size_t k : {size_t{3}, size_t{4}}) {
        shard::ShardPlan plan =
            shard::PlanForCity(pois, k, variant.options);
        CsdStageCaches caches =
            shard::BuildStageCaches(pois, stays, plan, variant.options);
        std::string cached_tag = tag + "_k" + std::to_string(k);
        EXPECT_EQ(Serialize(SerialComposition(pois, stays, variant.options,
                                              &caches),
                            cached_tag + "_oracle"),
                  oracle)
            << cached_tag << ": cached serial composition";
        EXPECT_EQ(Serialize(CsdBuilder(variant.options)
                                .Build(pois, stays, &caches),
                            cached_tag + "_built"),
                  oracle)
            << cached_tag << ": cached build";
      }
    }
  }
  SetDefaultParallelism(0);
}

ComponentIndex IndexOf(const PoiDatabase& pois,
                       const CsdBuildOptions& options,
                       std::vector<uint32_t>& eps_offsets,
                       std::vector<PoiId>& eps_flat,
                       std::vector<uint32_t>& merge_offsets,
                       std::vector<PoiId>& merge_flat) {
  BuildEpsCsr(pois, options.clustering.eps, eps_offsets, eps_flat);
  BuildMergeCsr(pois, options.merging.neighbor_distance, merge_offsets,
                merge_flat);
  return BuildComponentIndex(
      StageGraph{eps_offsets, eps_flat, merge_offsets, merge_flat}, options);
}

TEST(ComponentStagesTest, StraddlingComponentsMatchSerialComposition) {
  std::vector<Poi> records = StraddlingCity();
  // Non-vacuity: many components, and some of them cross a tile border
  // of the K = 4 plan, so batches and tiles cut through each other.
  PoiDatabase pois(records);
  CsdBuildOptions options;
  std::vector<uint32_t> eo, mo;
  std::vector<PoiId> ef, mf;
  ComponentIndex index = IndexOf(pois, options, eo, ef, mo, mf);
  ASSERT_GT(index.size(), 64u);
  shard::ShardPlan plan = shard::PlanForCity(pois, 4, options);
  size_t straddling = 0;
  for (uint32_t c = 0; c < index.size(); ++c) {
    std::set<size_t> owners;
    for (PoiId pid : index.domain(c).pois) {
      owners.insert(plan.ShardOf(pois.poi(pid).position));
    }
    if (owners.size() > 1) ++straddling;
  }
  EXPECT_GT(straddling, 0u);

  ExpectRunnerMatchesSerialComposition(records, "straddling");
}

TEST(ComponentStagesTest, AllConnectedCityMatchesSerialComposition) {
  std::vector<Poi> records = AllConnectedCity();
  PoiDatabase pois(records);
  CsdBuildOptions options;
  std::vector<uint32_t> eo, mo;
  std::vector<PoiId> ef, mf;
  ASSERT_EQ(IndexOf(pois, options, eo, ef, mo, mf).size(), 1u);
  ExpectRunnerMatchesSerialComposition(records, "connected");
}

TEST(ComponentStagesTest, EmptyCityMatchesSerialComposition) {
  ExpectRunnerMatchesSerialComposition({}, "empty");
}

TEST(ComponentStagesTest, IndexIsCanonicalAndReportsItsComponents) {
  PoiDatabase pois(StraddlingCity());
  CsdBuildOptions options;
  obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_build_components_total",
      "Connected components of the eps-union-merge proximity graph");
  std::vector<uint32_t> eo, mo;
  std::vector<PoiId> ef, mf;
  SetDefaultParallelism(1);
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  uint64_t before = counter.Value();
  ComponentIndex serial = IndexOf(pois, options, eo, ef, mo, mf);
  EXPECT_EQ(counter.Value() - before, serial.size());
  obs::SetEnabled(obs_was_enabled);
  SetDefaultParallelism(4);
  ComponentIndex parallel = IndexOf(pois, options, eo, ef, mo, mf);
  SetDefaultParallelism(0);
  EXPECT_EQ(serial.component_of, parallel.component_of);
  EXPECT_EQ(serial.offsets, parallel.offsets);
  EXPECT_EQ(serial.order, parallel.order);
  // Components are numbered by their smallest POI and list their POIs
  // ascending; slot_of inverts order.
  for (uint32_t c = 0; c < serial.size(); ++c) {
    StageDomain domain = serial.domain(c);
    ASSERT_FALSE(domain.pois.empty());
    EXPECT_TRUE(std::is_sorted(domain.pois.begin(), domain.pois.end()));
    if (c > 0) {
      EXPECT_LT(serial.domain(c - 1).pois.front(), domain.pois.front());
    }
    for (size_t i = 0; i < domain.size(); ++i) {
      EXPECT_EQ(domain.Local(domain.pois[i]), i);
      EXPECT_EQ(serial.component_of[domain.pois[i]], c);
    }
  }
}

}  // namespace
}  // namespace csd
