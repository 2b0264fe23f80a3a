#ifndef CSD_PERFBENCH_REPORT_H_
#define CSD_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace csd::perfbench {

/// One workload run's outcome: operation counts, the metrics it
/// measured (name, value, unit), and the load shape that produced them.
/// Print() writes the load shape as a `load {...}` line and then the
/// result object as the final line of stdout.
class Report {
 public:
  void AddMetric(std::string name, double value, std::string unit);
  /// Load shape: seed, input sizes, threads, rates — anything a reader
  /// needs to reproduce or compare the run.
  void AddShape(std::string key, double value);
  void AddShape(std::string key, std::string value);

  void CountAttempted(uint64_t n) { attempted_ += n; }
  void CountFailed(uint64_t n) { failed_ += n; }
  /// Marks an output check as failed; the run then reports no metrics.
  void FailCheck(const std::string& what);

  bool correct() const { return correct_; }

  std::string LoadJson() const;
  std::string ResultJson() const;
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> shape_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Peak resident set size of this process (VmHWM), in MiB; 0 when
/// /proc is unavailable.
double PeakRssMb();

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

/// CPU seconds used so far by the calling thread, and by the process.
double ThreadCpuSeconds();
double ProcessCpuSeconds();

}  // namespace csd::perfbench

#endif  // CSD_PERFBENCH_REPORT_H_
