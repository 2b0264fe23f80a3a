#ifndef CSD_PERFBENCH_SERVE_COMMON_H_
#define CSD_PERFBENCH_SERVE_COMMON_H_

// Pieces the two serving workloads share: set-up, annotate request
// templates, the recognizer oracle, and the per-layer readout of the
// serve, shard and pool layers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "open_loop.h"
#include "report.h"
#include "serve_host.h"
#include "spans.h"
#include "steal.h"
#include "workloads.h"

namespace csd::perfbench {

/// Starts the host, its set-up timed from process start into
/// `*setup_s`. A traced run adds the set-up's layer readouts (spans,
/// counters) to `report`, with `trace.setup_s`, the traced set-up, and
/// `setup.unattributed_s`, the part of it no io, poi or snapshot figure
/// covers (dataset assembly past the POI DB, planning, store, service
/// and front-end start, the first answer).
std::unique_ptr<ServeHost> StartHost(const RunOptions& options, bool stream,
                                     Report* report, double* setup_s);

/// Annotate request templates: 1-4 stays each, drawn from held-out
/// journey stay points (popularity-skewed, as real requests are).
class AnnotateRequests {
 public:
  /// With `dirty_region`, templates alternate between stays inside it
  /// and stays outside it (request k of a connection draws from the
  /// inside pool when k + conn is even).
  AnnotateRequests(const std::vector<StayPoint>& stays, uint64_t seed,
                   const BoundingBox* dirty_region = nullptr);
  const std::vector<StayPoint>& Template(size_t conn, size_t k) const;
  FrameEncoder Encoder(size_t conn) const;

 private:
  /// Even, so template parity follows request parity (see Template).
  static constexpr size_t kTemplates = 8192;
  std::vector<std::vector<StayPoint>> templates_;
};

/// A sampled annotate response, kept for the oracle comparison.
struct AnnotateSample {
  size_t conn = 0;
  size_t k = 0;
  std::vector<uint32_t> units;
  std::vector<uint32_t> semantic_bits;
};

/// Response check for annotate frames; keeps 1 in `sample_every`
/// responses (seeded choice) in `*samples` when non-null.
ResponseCheck AnnotateCheck(const AnnotateRequests& requests, size_t conn,
                            uint64_t seed, size_t sample_every,
                            std::vector<AnnotateSample>* samples);

/// Re-annotates every sample with the snapshot's voting recognizer (the
/// kept oracle). Returns the number of stays that disagree.
size_t OracleMismatches(const serve::CsdSnapshot& snapshot,
                        const AnnotateRequests& requests,
                        const std::vector<AnnotateSample>& samples,
                        size_t* checked_stays);

/// Runs one open-loop annotate stream per client (two threads each) at
/// `rate` in total: `warmup_s` of unmeasured traffic, then `duration_s`
/// measured.
LoopOutcome RunAnnotateLoad(
    std::vector<std::unique_ptr<serve::NetClient>>& clients,
    const AnnotateRequests& requests, double rate, double warmup_s,
    double duration_s, uint64_t seed, size_t sample_every,
    std::vector<AnnotateSample>* samples);

/// Serve-path layer metrics of the traced window that just ended:
/// net.* and serve.* from counters, histograms and spans.
/// `unattributed_s` is the mean client latency (from due time) minus
/// generator lateness and the server's enqueue-to-completion latency.
void AddServeLayerMetrics(const LoopOutcome& traced, const SpanBreakdown& spans,
                          Report* report);

/// Slices of a measured window (stats.h WindowedPercentile).
inline constexpr size_t kWindowSlices = 10;

/// Windowed percentile over `window_s`, or a recorded failure: a
/// percentile some slice cannot support fails the run rather than
/// reporting a number the sample cannot back.
double WindowedOrFail(const std::vector<TimedSample>& samples,
                      double window_s, double q, const std::string& what,
                      Report* report, size_t slices = kWindowSlices,
                      const std::vector<bool>& skip = {});

/// Slices of a window whose host steal share exceeded kMaxStealShare.
/// On the reference host quiet runs steal ~0.5% of CPU time overall and
/// noisy ones 2-3%, with the whole-window tail 2-5x higher.
inline constexpr double kMaxStealShare = 0.02;
std::vector<bool> NoisySlices(const StealMonitor& steal, double start_s,
                              double window_s, size_t slices);

}  // namespace csd::perfbench

#endif  // CSD_PERFBENCH_SERVE_COMMON_H_
