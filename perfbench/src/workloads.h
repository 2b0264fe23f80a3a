#ifndef CSD_PERFBENCH_WORKLOADS_H_
#define CSD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"
#include "util/status.h"

namespace csd::perfbench {

/// One timed run of a workload.
struct RunOptions {
  uint64_t seed = 1;
  /// Measured seconds (the workload's main loop; set-up is extra).
  double seconds = 10.0;
  /// Traced run: obs spans and counters on, per-layer metrics out.
  bool trace = false;
  /// Directory holding the inputs `gen` wrote.
  std::string dir;
  /// Steady-clock seconds at process start (set-up time origin).
  double process_start_s = 0.0;
};

/// Each fills `report` with its metrics, counts and load shape; an
/// output check that fails marks the report incorrect.
void RunMineBatch(const RunOptions& options, Report* report);
void RunAnnotateRead(const RunOptions& options, Report* report);
void RunIngestMixed(const RunOptions& options, Report* report);

/// Current value of a registered obs counter (0 if never registered).
double CounterValue(const std::string& name);

/// Quantile of an obs histogram by linear interpolation inside the
/// bucket holding it (the +Inf bucket reports its lower edge), and its
/// mean; 0 when empty.
double HistogramQuantile(const std::string& name, double q);
double HistogramMean(const std::string& name);

/// Set-up alone, as `run` starts: seconds from process start to the
/// first annotate answered (serving workloads) or to the inputs loaded
/// (mine-batch). perfbench/run.py repeats it in fresh processes and
/// reports the median with the run's own set-up as setup_s.
Result<double> MeasureSetup(const std::string& workload,
                            const RunOptions& options);
Result<double> MineBatchSetup(const RunOptions& options);

}  // namespace csd::perfbench

#endif  // CSD_PERFBENCH_WORKLOADS_H_
