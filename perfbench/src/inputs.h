#ifndef CSD_PERFBENCH_INPUTS_H_
#define CSD_PERFBENCH_INPUTS_H_

// Generated inputs of the three workloads. `csd_perfbench gen` writes
// them from the seed; the timed run reads them back, so set-up time
// starts with inputs on disk, as it does for `csdctl`.

#include <cstdint>
#include <string>
#include <vector>

#include "geo/point.h"
#include "scenario/scenario.h"
#include "traj/journey.h"
#include "traj/trajectory.h"
#include "util/status.h"

namespace csd::perfbench {

/// The serving workloads' shape: megacity-steady, the repo's 1M-POI
/// mixed annotate + ingest scenario (src/scenario/scenario.cc). Its city,
/// trip model, replay fleet, shard count and annotate rate are used as
/// they are; Sizes names what the benchmark changes, and why.
const scenario::ScenarioPack& ServePack();

/// Workload sizes. The mine-batch city is csdctl's default geometry at
/// 80k POIs with ~100k journeys; the serving workloads use ServePack().
struct Sizes {
  static constexpr size_t kMinePois = 80000;
  static constexpr size_t kMineAgents = 10000;
  static constexpr int kMineDays = 7;
  /// ingest-mixed bootstrap evidence: the pack's trip model with
  /// 1/kIngestBootstrapDivisor of its agents, so that the stays one run
  /// streams outgrow the bootstrap several times over, as the stream-age
  /// probe needs. annotate-read bootstraps from the whole trip model.
  static constexpr size_t kIngestBootstrapDivisor = 64;
  /// Held-out journeys whose stay points become annotate requests.
  static constexpr size_t kHeldoutAgents = 1000;
  static constexpr int kHeldoutDays = 2;
  /// The fleet's aggregate fix rate. A stay closes after a 15-minute
  /// dwell, ~70 fixes with the travel to it, so the pack's 250 fixes/s
  /// closes ~35 stays in a 10 s run, and a freshness p99 taken in each
  /// of five slices needs 1,000 stays per slice (stats.h). 48k fixes/s
  /// closes ~6.7k: the feed of ~1.4M devices sampling every 30 s,
  /// replayed by the pack's 128 users at ~11,000x real time each.
  static constexpr double kFleetFixesPerSecond = 48000.0;
  /// INGEST_FIX frames carry runs of one user's consecutive fixes in the
  /// merged stream, at most this many: serve_load's scenario client.
  static constexpr size_t kMaxFixesPerFrame = 32;
};

/// Paths of one workload's input files inside `dir`.
struct InputPaths {
  std::string pois, trips, heldout, fleet;
  explicit InputPaths(const std::string& dir);
};

/// Writes the named workload's inputs for `seed` into `dir`. The fleet
/// carries enough fixes to stream for `seconds` at the fleet fix rate.
Status GenerateInputs(const std::string& workload, uint64_t seed,
                      double seconds, const std::string& dir);

/// Fleet traces: per user (index = user id), time-ordered fixes.
Status WriteFleet(const std::string& path,
                  const std::vector<Trajectory>& traces);
Result<std::vector<Trajectory>> ReadFleet(const std::string& path);

/// Pick-up and drop-off positions of held-out journeys.
std::vector<StayPoint> HeldoutStays(const std::vector<TaxiJourney>& journeys);

}  // namespace csd::perfbench

#endif  // CSD_PERFBENCH_INPUTS_H_
