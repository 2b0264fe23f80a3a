#ifndef CSD_TESTS_SERVE_TEST_HELPERS_H_
#define CSD_TESTS_SERVE_TEST_HELPERS_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "io/binary_io.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "shard/sharded_build.h"
#include "synth/city_generator.h"
#include "synth/trip_generator.h"

namespace csd::serve::testing {

/// A small deterministic city + journey set for the serving tests: big
/// enough that the CSD has real units and mined patterns, small enough
/// that a snapshot build (the unit of work the lifecycle tests repeat
/// under tsan) stays in the tens of milliseconds.
inline std::shared_ptr<const ServeDataset> MakeTestDataset(
    uint64_t seed = 7) {
  CityConfig city_config;
  city_config.num_pois = 2000;
  city_config.width_m = 6000.0;
  city_config.height_m = 6000.0;
  city_config.seed = seed;
  TripConfig trip_config;
  trip_config.num_agents = 300;
  trip_config.num_days = 2;
  trip_config.seed = seed + 55;

  SyntheticCity city = GenerateCity(city_config);
  TripDataset trips = GenerateTrips(city, trip_config);
  return MakeServeDataset(std::move(city.pois), trips.journeys);
}

/// Extraction thresholds scaled down to the test dataset so pattern
/// mining finds something.
inline SnapshotOptions TestSnapshotOptions(bool mine_patterns = true) {
  SnapshotOptions options;
  options.miner.extraction.support_threshold = 5;
  options.mine_patterns = mine_patterns;
  return options;
}

/// The 1×1 plan of `data`'s city. A CsdSnapshot built over it runs the
/// monolithic stage pass — the tests' monolithic oracle and K=1 store.
inline shard::ShardPlan MonolithicPlan(
    const std::shared_ptr<const ServeDataset>& data) {
  return shard::PlanForCity(data->pois, 1, CsdBuildOptions{});
}

/// The diagram's WriteCsdBinary bytes — the byte-identity currency of the
/// build-equivalence tests.
inline std::string SerializeDiagram(const CitySemanticDiagram& diagram,
                                    const std::string& tag) {
  std::string path = ::testing::TempDir() + "/csd_" +
                     std::to_string(::getpid()) + "_" + tag + ".bin";
  Status written = WriteCsdBinary(path, diagram);
  EXPECT_TRUE(written.ok()) << written.message();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

/// The monolithic serving case as a store: one shard lane beside the
/// global lane, plus the 1×1 plan a ServeService over it routes by —
/// `ServeService service(&store, store.plan, options)`.
class K1Store : public ShardedSnapshotStore {
 public:
  /// Publishes `initial` to both lanes as version 1.
  explicit K1Store(std::shared_ptr<CsdSnapshot> initial)
      : K1Store(initial->shared_data()) {
    PublishAll(std::move(initial));
  }
  /// An empty store (version 0) over `data`'s city.
  explicit K1Store(const std::shared_ptr<const ServeDataset>& data)
      : ShardedSnapshotStore(1), plan(MonolithicPlan(data)) {}

  const shard::ShardPlan plan;
};

/// Iteration multiplier for the concurrency tests: 1 normally, larger
/// under CSD_SERVE_STRESS (check.sh sets it for the dedicated tsan
/// stress pass, where longer reader/publisher overlap hunts rarer
/// interleavings).
inline size_t StressScale() {
  const char* value = std::getenv("CSD_SERVE_STRESS");
  if (value == nullptr) return 1;
  long long parsed = std::atoll(value);
  return parsed > 0 ? 4 * static_cast<size_t>(parsed) : 1;
}

}  // namespace csd::serve::testing

#endif  // CSD_TESTS_SERVE_TEST_HELPERS_H_
