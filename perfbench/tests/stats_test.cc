// Unit tests of the benchmark's measurement rules (src/stats.h).

#include "stats.h"
#include "steal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace csd::perfbench {
namespace {

using Clock = OpenLoopSchedule::Clock;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(PercentileReportable(999, 0.99));
  EXPECT_TRUE(PercentileReportable(1000, 0.99));
  EXPECT_FALSE(PercentileReportable(19, 0.5));
  EXPECT_TRUE(PercentileReportable(20, 0.5));
  EXPECT_TRUE(PercentileReportable(10000, 0.999));
  EXPECT_FALSE(PercentileReportable(9999, 0.999));
  EXPECT_FALSE(PercentileReportable(0, 0.5));
  EXPECT_FALSE(PercentileReportable(100, 1.0));
}

TEST(PercentileRule, UnsupportedPercentileHasNoValue) {
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileRule, NearestRank) {
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(1000), 0.99), 990.0);
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(1000), 0.5), 500.0);
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(20), 0.5), 10.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(*Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(*Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_FALSE(Median({}).has_value());
}

std::vector<TimedSample> Uniform(size_t n, double window_s, double value) {
  std::vector<TimedSample> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = {window_s * static_cast<double>(i) / static_cast<double>(n), value};
  }
  return v;
}

TEST(WindowedPercentile, StallInOneSliceDoesNotMoveTheMedianSlice) {
  // 10 slices of 2000 samples at 1 ms; one slice stalls at 50 ms.
  std::vector<TimedSample> samples = Uniform(20000, 10.0, 0.001);
  for (TimedSample& s : samples) {
    if (s.at_s >= 3.0 && s.at_s < 4.0) s.value = 0.050;
  }
  EXPECT_DOUBLE_EQ(*WindowedPercentile(samples, 10.0, 10, 0.99), 0.001);
  // The whole-window p99 is the stall (1 sample in 10 is slow).
  std::vector<double> values;
  for (const TimedSample& s : samples) values.push_back(s.value);
  std::sort(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(*Percentile(values, 0.99), 0.050);
}

TEST(WindowedPercentile, StallsInMostSlicesShow) {
  std::vector<TimedSample> samples = Uniform(20000, 10.0, 0.001);
  for (size_t i = 0; i < samples.size(); i += 50) samples[i].value = 0.020;
  // 2% of every slice is slow, so every slice's p99 is slow.
  EXPECT_DOUBLE_EQ(*WindowedPercentile(samples, 10.0, 10, 0.99), 0.020);
}

TEST(WindowedPercentile, EverySliceMustSupportThePercentile) {
  std::vector<TimedSample> samples = Uniform(20000, 10.0, 0.001);
  EXPECT_TRUE(WindowedPercentile(samples, 10.0, 20, 0.99).has_value());
  EXPECT_FALSE(WindowedPercentile(samples, 10.0, 21, 0.99).has_value());
  // An empty slice (no samples in [9, 10)) cannot support anything.
  std::vector<TimedSample> gap;
  for (const TimedSample& s : samples) {
    if (s.at_s < 9.0) gap.push_back(s);
  }
  EXPECT_FALSE(WindowedPercentile(gap, 10.0, 10, 0.5).has_value());
  // Samples outside the window are ignored.
  samples.push_back({10.5, 99.0});
  samples.push_back({-0.5, 99.0});
  EXPECT_DOUBLE_EQ(*WindowedPercentile(samples, 10.0, 10, 0.99), 0.001);
}

TEST(MedianSliceCount, BurstInOneSliceIsIgnored) {
  std::vector<double> shed_at(500, 0.15);  // a burst inside slice 1
  EXPECT_DOUBLE_EQ(MedianSliceCount(shed_at, 0.4, 4), 0.0);
  // Shedding spread over the window is counted: 10 in every slice.
  for (int i = 0; i < 40; ++i) shed_at.push_back(0.01 * i + 0.005);
  EXPECT_DOUBLE_EQ(MedianSliceCount(shed_at, 0.4, 4), 10.0);
  EXPECT_DOUBLE_EQ(MedianSliceCount({}, 0.4, 4), 0.0);
}

TEST(WindowedPercentile, SkippedSlicesAreLeftOut) {
  std::vector<TimedSample> samples = Uniform(20000, 10.0, 0.001);
  for (TimedSample& s : samples) {
    if (s.at_s < 6.0) s.value = 0.050;  // six of ten slices stalled
  }
  EXPECT_DOUBLE_EQ(*WindowedPercentile(samples, 10.0, 10, 0.99), 0.050);
  std::vector<bool> skip(10, false);
  for (size_t i = 0; i < 6; ++i) skip[i] = true;
  EXPECT_DOUBLE_EQ(*WindowedPercentile(samples, 10.0, 10, 0.99, skip), 0.001);
  // Every slice flagged: nothing can be left out, so all slices count.
  std::vector<bool> all(10, true);
  EXPECT_DOUBLE_EQ(*WindowedPercentile(samples, 10.0, 10, 0.99, all), 0.050);
  std::vector<double> shed_at(40, 0.05);  // slice 0 of 4 sheds
  EXPECT_DOUBLE_EQ(MedianSliceCount(shed_at, 0.4, 4), 0.0);
}

TEST(StealShare, ShareOfAllCpuTime) {
  EXPECT_DOUBLE_EQ(StealShare(100, 1000, 110, 1100), 0.1);
  EXPECT_DOUBLE_EQ(StealShare(100, 1000, 100, 1000), 0.0);
}

TEST(DueTime, ScheduleIsFixedInterval) {
  Clock::time_point start{};
  OpenLoopSchedule schedule(start, 1000.0);  // one request per ms
  EXPECT_EQ(schedule.Due(0), start);
  EXPECT_EQ(schedule.Due(5), start + std::chrono::milliseconds(5));
  EXPECT_EQ(schedule.DueCount(start - std::chrono::milliseconds(1)), 0u);
  EXPECT_EQ(schedule.DueCount(start), 1u);
  EXPECT_EQ(schedule.DueCount(start + std::chrono::microseconds(4999)), 5u);
  EXPECT_EQ(schedule.DueCount(start + std::chrono::milliseconds(5)), 6u);
}

TEST(DueTime, GeneratorStallIsChargedToEveryDelayedRequest) {
  // The sender stalls 10 ms and then sends requests 0..9 together at
  // t = 10 ms; the server answers each 1 ms after it was sent. Timed
  // from the send, every request would read 1 ms; timed from its due
  // time, request i waited 11 - i ms, and the lateness shows the stall.
  Clock::time_point start{};
  OpenLoopSchedule schedule(start, 1000.0);
  const Clock::time_point sent = start + std::chrono::milliseconds(10);
  const Clock::time_point done = sent + std::chrono::milliseconds(1);
  for (size_t i = 0; i < 10; ++i) {
    DueTiming t = AccountFromDue(schedule.Due(i), sent, done);
    EXPECT_NEAR(t.latency_s, 0.001 * static_cast<double>(11 - i), 1e-9) << i;
    EXPECT_NEAR(t.late_s, 0.001 * static_cast<double>(10 - i), 1e-9) << i;
  }
  // A request sent on time has no lateness.
  DueTiming on_time =
      AccountFromDue(schedule.Due(20), schedule.Due(20),
                     schedule.Due(20) + std::chrono::microseconds(300));
  EXPECT_NEAR(on_time.latency_s, 0.0003, 1e-9);
  EXPECT_DOUBLE_EQ(on_time.late_s, 0.0);
}

Rung Passing(double qps) {
  Rung r;
  r.offered_qps = qps;
  r.achieved_qps = qps;
  r.p99_ms = 2.0;
  r.gen_late_p99_ms = 0.2;
  return r;
}

TEST(Ladder, CapacityIsTheLastPassingRungBeforeTheFirstFailure) {
  Rung slow = Passing(400);
  slow.p99_ms = 6.0;  // misses the 5 ms SLO
  Rung recovered = Passing(800);  // above a failure: not evidence
  Capacity c = SelectCapacity({Passing(100), Passing(200), slow, recovered});
  EXPECT_DOUBLE_EQ(c.qps, 200.0);
  EXPECT_FALSE(c.limited_by_generator);
}

TEST(Ladder, SheddingBacklogAndMissingTailFail) {
  Rung shed = Passing(300);
  shed.shed = 1;
  EXPECT_EQ(JudgeRung(shed), RungVerdict::kFail);
  Rung backlog = Passing(300);
  backlog.achieved_qps = 0.98 * 300;
  EXPECT_EQ(JudgeRung(backlog), RungVerdict::kFail);
  Rung no_tail = Passing(300);
  no_tail.p99_ms.reset();
  EXPECT_EQ(JudgeRung(no_tail), RungVerdict::kFail);
  Rung errors = Passing(300);
  errors.failed = 2;
  EXPECT_EQ(JudgeRung(errors), RungVerdict::kFail);
  EXPECT_DOUBLE_EQ(SelectCapacity({Passing(100), shed}).qps, 100.0);
}

TEST(Ladder, GeneratorStallInvalidatesTheRung) {
  Rung behind = Passing(300);
  behind.gen_late_p99_ms = 3.0;
  EXPECT_EQ(JudgeRung(behind), RungVerdict::kInvalid);
  Capacity c = SelectCapacity({Passing(100), Passing(200), behind});
  EXPECT_DOUBLE_EQ(c.qps, 200.0);
  EXPECT_TRUE(c.limited_by_generator);
}

TEST(Ladder, NoPassingRungIsZero) {
  Rung slow = Passing(100);
  slow.p99_ms = 50.0;
  EXPECT_DOUBLE_EQ(SelectCapacity({slow}).qps, 0.0);
  EXPECT_DOUBLE_EQ(SelectCapacity({}).qps, 0.0);
}

TEST(Ladder, GeometricStepsStayWithinATenth) {
  std::vector<double> rates = GeometricLadder(1000, 2000, 1.1);
  ASSERT_EQ(rates.size(), 8u);  // 1000, 1100, 1210, ... 1949
  EXPECT_DOUBLE_EQ(rates.front(), 1000.0);
  for (size_t i = 1; i < rates.size(); ++i) {
    EXPECT_NEAR(rates[i] / rates[i - 1], 1.1, 0.001);
  }
  EXPECT_TRUE(GeometricLadder(0, 10, 1.1).empty());
  EXPECT_TRUE(GeometricLadder(1, 10, 1.0).empty());
}

}  // namespace
}  // namespace csd::perfbench
