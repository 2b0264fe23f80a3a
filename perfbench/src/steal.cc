#include "steal.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

#include "report.h"

namespace csd::perfbench {

namespace {

/// Cumulative (steal, total) jiffies of the aggregate "cpu" line.
bool ReadCpuTimes(double* steal, double* total) {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return false;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  double v[8] = {};
  for (double& x : v) {
    if (!(fields >> x)) return false;
  }
  *steal = v[7];
  *total = 0.0;
  for (double x : v) *total += x;
  return true;
}

}  // namespace

double StealShare(double steal0, double total0, double steal1,
                  double total1) {
  double total = total1 - total0;
  return total > 0.0 ? (steal1 - steal0) / total : 0.0;
}

StealMonitor::StealMonitor() : thread_([this] { Run(); }) {}

StealMonitor::~StealMonitor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void StealMonitor::Run() {
  const auto period =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(kStealPeriodS));
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    double steal = 0.0, total = 0.0;
    if (ReadCpuTimes(&steal, &total)) {
      samples_.push_back({NowSeconds(), steal, total});
    }
    cv_.wait_for(lock, period, [this] { return stop_; });
  }
}

std::vector<bool> StealMonitor::NoisySlices(double start_s, double window_s,
                                            size_t slices,
                                            double max_share) const {
  std::vector<bool> noisy(slices, false);
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < slices; ++i) {
    double lo = start_s + window_s * static_cast<double>(i) /
                              static_cast<double>(slices);
    double hi = start_s + window_s * static_cast<double>(i + 1) /
                              static_cast<double>(slices);
    // The last sample at or before lo and the first at or after hi.
    auto first = std::upper_bound(
        samples_.begin(), samples_.end(), lo,
        [](double t, const Sample& s) { return t < s.t; });
    auto last = std::lower_bound(
        samples_.begin(), samples_.end(), hi,
        [](const Sample& s, double t) { return s.t < t; });
    if (first == samples_.begin() || last == samples_.end()) continue;
    --first;
    noisy[i] = StealShare(first->steal, first->total, last->steal,
                          last->total) > max_share;
  }
  return noisy;
}

}  // namespace csd::perfbench
