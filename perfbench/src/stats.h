#ifndef CSD_PERFBENCH_STATS_H_
#define CSD_PERFBENCH_STATS_H_

// The measurement rules every workload reports through: which percentile
// a sample supports, how open-loop latency is accounted against the
// schedule, and how the offered-load ladder picks a capacity. Pure
// functions over plain numbers, so tests/stats_test.cc pins each rule.

#include <chrono>
#include <cstddef>
#include <optional>
#include <vector>

namespace csd::perfbench {

/// A percentile q (0 < q < 1) is reportable only when at least
/// kMinTailSamples samples lie beyond it: n * (1 - q) >= 10.
inline constexpr size_t kMinTailSamples = 10;
bool PercentileReportable(size_t n, double q);

/// Nearest-rank percentile of an ascending sample, or nullopt when the
/// sample does not support q (PercentileReportable) — callers treat that
/// as a failed run, never as a number.
std::optional<double> Percentile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (mean of the middle two for even n);
/// nullopt when empty.
std::optional<double> Median(std::vector<double> values);

/// One timed sample placed in its measured window: `at_s` is the
/// sample's due time from the window's start.
struct TimedSample {
  double at_s;
  double value;
};

/// The windowed percentile: the window [0, window_s) is cut into
/// `slices` equal slices by `at_s`, q is taken in each slice, and the
/// median of the slices' values is reported. A stall confined to one
/// slice moves one slice's value, not the result, so the figure is the
/// tail of a typical stretch of the run. nullopt unless every slice
/// supports q (PercentileReportable); samples outside the window are
/// ignored. Slices flagged in `skip` (e.g. host steal, steal.h) are left
/// out, unless every slice is flagged.
std::optional<double> WindowedPercentile(
    const std::vector<TimedSample>& samples, double window_s, size_t slices,
    double q, const std::vector<bool>& skip = {});

/// Events (due times from the window's start) counted per slice of
/// [0, window_s), and the median of the slice counts: like
/// WindowedPercentile, one stall's burst of events moves one slice.
double MedianSliceCount(const std::vector<double>& at_s, double window_s,
                        size_t slices, const std::vector<bool>& skip = {});

/// Fixed-interval open-loop schedule: request i is due at
/// start + i * interval, whether or not earlier requests completed.
class OpenLoopSchedule {
 public:
  using Clock = std::chrono::steady_clock;
  OpenLoopSchedule(Clock::time_point start, double rate_per_s);
  Clock::time_point Due(size_t i) const;
  /// Requests due at or before `now` (indices [0, DueCount(now))).
  size_t DueCount(Clock::time_point now) const;

 private:
  Clock::time_point start_;
  double interval_s_;
};

/// One request's timing against its schedule slot. Latency runs from
/// the due time, so a generator stall is charged to every request it
/// delayed; lateness (send - due) is the generator's own delay.
struct DueTiming {
  double latency_s = 0.0;
  double late_s = 0.0;
};
DueTiming AccountFromDue(OpenLoopSchedule::Clock::time_point due,
                         OpenLoopSchedule::Clock::time_point sent,
                         OpenLoopSchedule::Clock::time_point done);

/// What one ladder rung measured.
struct Rung {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;   // responses received / rung wall seconds
  size_t completed = 0;        // successful responses
  /// kUnavailable responses in the median slice (MedianSliceCount).
  size_t shed = 0;
  size_t failed = 0;           // any other non-success
  /// Windowed percentiles from due time; nullopt if unsupported.
  std::optional<double> p99_ms;
  std::optional<double> gen_late_p99_ms;
};

/// The service-level objective a rung must meet (p99 within the SLO, no
/// shedding, achieved rate within 1% of offered), and the generator
/// lateness beyond which the rung says nothing about the server.
inline constexpr double kSloP99Ms = 5.0;
inline constexpr double kMinAchievedFraction = 0.99;
inline constexpr double kMaxGenLateP99Ms = 1.0;

enum class RungVerdict { kPass, kFail, kInvalid };
RungVerdict JudgeRung(const Rung& rung);

/// Capacity: the offered rate of the last passing rung of an ascending
/// ladder, scanning up to the first rung that fails or is invalid (a
/// rung above a failure or above a generator stall is not evidence).
/// `limited_by_generator` is set when the scan stopped on an invalid
/// rung, so the capacity is a lower bound set by the load generator.
struct Capacity {
  double qps = 0.0;
  bool limited_by_generator = false;
};
Capacity SelectCapacity(const std::vector<Rung>& ladder);

/// Geometric ladder from `lo` to at most `hi`, each rung `ratio` times
/// the previous one.
std::vector<double> GeometricLadder(double lo, double hi, double ratio);

}  // namespace csd::perfbench

#endif  // CSD_PERFBENCH_STATS_H_
