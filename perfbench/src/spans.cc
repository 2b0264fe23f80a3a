#include "spans.h"

#include <algorithm>
#include <set>

namespace csd::perfbench {

namespace {

template <typename Map>
typename Map::mapped_type Lookup(const Map& map, const std::string& key) {
  auto it = map.find(key);
  return it == map.end() ? typename Map::mapped_type{} : it->second;
}

}  // namespace

double SpanBreakdown::DriverSelf(const std::string& name) const {
  return Lookup(driver_self_s, name);
}
double SpanBreakdown::Total(const std::string& name) const {
  return Lookup(total_s, name);
}

SpanBreakdown AnalyzeSpans(const std::vector<obs::SpanEvent>& input,
                           const std::string& driver_name) {
  std::vector<obs::SpanEvent> spans = input;
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.duration_ns > b.duration_ns;
            });
  std::vector<int64_t> self_ns(spans.size());
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanEvent& e = spans[i];
    self_ns[i] = e.duration_ns;
    while (!stack.empty() &&
           (spans[stack.back()].tid != e.tid ||
            spans[stack.back()].start_ns + spans[stack.back()].duration_ns <=
                e.start_ns)) {
      stack.pop_back();
    }
    if (!stack.empty()) self_ns[stack.back()] -= e.duration_ns;
    stack.push_back(i);
  }

  SpanBreakdown out;
  std::set<uint32_t> driver_tids;
  std::vector<std::pair<int64_t, int64_t>> driver_windows;
  for (const obs::SpanEvent& e : spans) {
    if (driver_name == e.name) {
      driver_tids.insert(e.tid);
      driver_windows.emplace_back(e.start_ns, e.start_ns + e.duration_ns);
    }
  }
  auto in_driver_window = [&](const obs::SpanEvent& e) {
    if (driver_tids.count(e.tid) == 0) return false;
    for (const auto& [lo, hi] : driver_windows) {
      if (e.start_ns >= lo && e.start_ns + e.duration_ns <= hi) return true;
    }
    return false;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanEvent& e = spans[i];
    const std::string name = e.name;
    double self = static_cast<double>(self_ns[i]) * 1e-9;
    double total = static_cast<double>(e.duration_ns) * 1e-9;
    out.total_s[name] += total;
    if (name == driver_name) {
      out.driver_s += total;
      out.unattributed_s += self;
    } else if (in_driver_window(e)) {
      out.driver_self_s[name] += self;
    }
  }
  return out;
}

}  // namespace csd::perfbench
