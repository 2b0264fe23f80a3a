#include "stats.h"

#include <algorithm>
#include <cmath>

namespace csd::perfbench {

bool PercentileReportable(size_t n, double q) {
  if (n == 0 || !(q > 0.0 && q < 1.0)) return false;
  // Integer tail count, so 1000 samples support p99 despite 0.99's
  // binary representation.
  double tail = std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9);
  return tail >= static_cast<double>(kMinTailSamples);
}

std::optional<double> Percentile(const std::vector<double>& sorted, double q) {
  if (!PercentileReportable(sorted.size(), q)) return std::nullopt;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size()) - 1e-9));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

std::optional<double> Median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// Whether slice i is left out: flagged, and not every slice is.
bool Skipped(const std::vector<bool>& skip, size_t i) {
  if (skip.empty() || std::all_of(skip.begin(), skip.end(),
                                  [](bool b) { return b; })) {
    return false;
  }
  return i < skip.size() && skip[i];
}

}  // namespace

std::optional<double> WindowedPercentile(
    const std::vector<TimedSample>& samples, double window_s, size_t slices,
    double q, const std::vector<bool>& skip) {
  if (slices == 0 || !(window_s > 0.0)) return std::nullopt;
  std::vector<std::vector<double>> by_slice(slices);
  for (const TimedSample& s : samples) {
    if (!(s.at_s >= 0.0 && s.at_s < window_s)) continue;
    size_t slice = static_cast<size_t>(s.at_s / window_s *
                                       static_cast<double>(slices));
    by_slice[std::min(slice, slices - 1)].push_back(s.value);
  }
  std::vector<double> per_slice;
  for (size_t i = 0; i < slices; ++i) {
    if (Skipped(skip, i)) continue;
    std::vector<double>& values = by_slice[i];
    std::sort(values.begin(), values.end());
    std::optional<double> p = Percentile(values, q);
    if (!p.has_value()) return std::nullopt;
    per_slice.push_back(*p);
  }
  return Median(std::move(per_slice));
}

double MedianSliceCount(const std::vector<double>& at_s, double window_s,
                        size_t slices, const std::vector<bool>& skip) {
  if (slices == 0 || !(window_s > 0.0)) return 0.0;
  std::vector<double> counts(slices, 0.0);
  for (double at : at_s) {
    if (!(at >= 0.0 && at < window_s)) continue;
    size_t slice = static_cast<size_t>(at / window_s *
                                       static_cast<double>(slices));
    counts[std::min(slice, slices - 1)] += 1.0;
  }
  std::vector<double> kept;
  for (size_t i = 0; i < slices; ++i) {
    if (!Skipped(skip, i)) kept.push_back(counts[i]);
  }
  return *Median(std::move(kept));
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_per_s)
    : start_(start), interval_s_(rate_per_s > 0.0 ? 1.0 / rate_per_s : 0.0) {}

OpenLoopSchedule::Clock::time_point OpenLoopSchedule::Due(size_t i) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) * interval_s_));
}

size_t OpenLoopSchedule::DueCount(Clock::time_point now) const {
  if (now < start_) return 0;
  if (interval_s_ <= 0.0) return 0;
  double elapsed = std::chrono::duration<double>(now - start_).count();
  size_t count = static_cast<size_t>(std::floor(elapsed / interval_s_)) + 1;
  // Guard the floating-point boundary: Due(count) must lie after `now`.
  while (count > 0 && Due(count - 1) > now) --count;
  while (Due(count) <= now) ++count;
  return count;
}

DueTiming AccountFromDue(OpenLoopSchedule::Clock::time_point due,
                         OpenLoopSchedule::Clock::time_point sent,
                         OpenLoopSchedule::Clock::time_point done) {
  DueTiming timing;
  timing.latency_s = std::chrono::duration<double>(done - due).count();
  timing.late_s =
      std::max(0.0, std::chrono::duration<double>(sent - due).count());
  return timing;
}

RungVerdict JudgeRung(const Rung& rung) {
  if (!rung.gen_late_p99_ms.has_value() ||
      *rung.gen_late_p99_ms > kMaxGenLateP99Ms) {
    return RungVerdict::kInvalid;
  }
  if (!rung.p99_ms.has_value()) return RungVerdict::kFail;
  if (*rung.p99_ms > kSloP99Ms) return RungVerdict::kFail;
  if (rung.shed > 0 || rung.failed > 0) return RungVerdict::kFail;
  if (rung.achieved_qps < kMinAchievedFraction * rung.offered_qps) {
    return RungVerdict::kFail;
  }
  return RungVerdict::kPass;
}

Capacity SelectCapacity(const std::vector<Rung>& ladder) {
  Capacity capacity;
  for (const Rung& rung : ladder) {
    RungVerdict verdict = JudgeRung(rung);
    if (verdict == RungVerdict::kInvalid) {
      capacity.limited_by_generator = true;
      break;
    }
    if (verdict == RungVerdict::kFail) break;
    capacity.qps = rung.offered_qps;
  }
  return capacity;
}

std::vector<double> GeometricLadder(double lo, double hi, double ratio) {
  std::vector<double> rates;
  if (!(lo > 0.0) || !(ratio > 1.0)) return rates;
  for (double r = lo; r <= hi * (1.0 + 1e-9); r *= ratio) {
    rates.push_back(std::round(r));
  }
  return rates;
}

}  // namespace csd::perfbench
