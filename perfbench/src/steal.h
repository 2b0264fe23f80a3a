#ifndef CSD_PERFBENCH_STEAL_H_
#define CSD_PERFBENCH_STEAL_H_

// Host interference probe. On a virtual machine the hypervisor can take
// a vCPU away for milliseconds ("steal" time in /proc/stat); a latency
// slice measured while that happens measures the host, not the program.
// The monitor samples the system-wide steal share so that such slices
// can be left out of windowed percentiles.

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace csd::perfbench {

/// Sampling period of the monitor, seconds.
inline constexpr double kStealPeriodS = 0.02;

class StealMonitor {
 public:
  /// Starts sampling /proc/stat every kStealPeriodS.
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// For each of `slices` equal slices of [start_s, start_s + window_s)
  /// (steady-clock seconds), whether the steal share of all CPU time in
  /// it exceeded `max_share`. All false when /proc/stat is unreadable.
  std::vector<bool> NoisySlices(double start_s, double window_s,
                                size_t slices, double max_share) const;

 private:
  struct Sample {
    double t;
    double steal;
    double total;
  };
  void Run();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;            // guarded by mutex_
  std::vector<Sample> samples_;  // guarded by mutex_
  std::thread thread_;           // last: Run() uses every member above
};

/// Share of steal in CPU time between two cumulative /proc/stat
/// readings (steal, total); 0 when no time passed.
double StealShare(double steal0, double total0, double steal1, double total1);

}  // namespace csd::perfbench

#endif  // CSD_PERFBENCH_STEAL_H_
