#ifndef CSD_PERFBENCH_SPANS_H_
#define CSD_PERFBENCH_SPANS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace csd::perfbench {

/// Self-time attribution of a traced run. A span's self time is its
/// duration minus the spans directly nested in it on the same thread.
///
/// The benchmark wraps each timed call in a "driver" span of its own
/// (bench/...). On the driver's thread the self times of the program's
/// spans inside those driver spans, plus the driver spans' own self time
/// (`unattributed_s`: benchmark time no program span covers), add up to
/// exactly the driver spans' total (`driver_s`) — the traced end-to-end
/// figure. Spans on other threads (pool workers, event loops, rebuild
/// lanes) overlap the driver's wall time and are kept apart, as busy
/// time per name.
struct SpanBreakdown {
  double driver_s = 0.0;
  double unattributed_s = 0.0;
  /// Program span self time on the driver thread, inside driver spans.
  std::map<std::string, double> driver_self_s;
  /// Total span duration per name over all threads.
  std::map<std::string, double> total_s;

  double DriverSelf(const std::string& name) const;
  double Total(const std::string& name) const;
};

SpanBreakdown AnalyzeSpans(const std::vector<obs::SpanEvent>& spans,
                           const std::string& driver_name);

}  // namespace csd::perfbench

#endif  // CSD_PERFBENCH_SPANS_H_
