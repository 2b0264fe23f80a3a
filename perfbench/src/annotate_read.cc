// annotate-read: open-loop annotate requests over loopback against the
// 1M-POI megacity-steady city served from the pack's tile plan. A fixed
// nominal rate gives the server CPU per request and the latency
// figures; a fixed ladder of offered rates gives the capacity. The
// stream layer is not attached.

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "io/binary_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve_common.h"
#include "stats.h"
#include "util/parallel.h"
#include "workloads.h"

namespace csd::perfbench {

namespace {

/// Latency is reported at this offered rate, well under the 150k-250k
/// QPS capacity measured on a 4-core virtual machine. The host there
/// steals vCPUs for tens of milliseconds at a time: at half capacity a
/// 12 ms stall already fills the 1024-request admission budget and
/// sheds requests, and at 50k QPS 20 ms stalls still did. At this rate
/// a stall must last 50 ms.
constexpr double kNominalQps = 20000.0;
/// The capacity ladder: 10% steps, each rung held this long.
constexpr double kLadderLo = 50000.0;
constexpr double kLadderHi = 400000.0;
constexpr double kLadderRatio = 1.1;
constexpr double kRungSeconds = 0.4;
constexpr size_t kRungSlices = 4;
constexpr int kRungAttempts = 3;
/// Fractions of kLadderLo tried, in order, only if the base rung fails.
constexpr std::array<double, 3> kBelowLadder = {0.7, 0.5, 0.3};
/// Traffic sent before each measured window, left out of its figures:
/// the first milliseconds after an idle gap are wake-up, not load.
constexpr double kWarmupSeconds = 0.1;
/// Two connections, each a sender and a reader thread: four client
/// threads, nproc on the reference host.
constexpr size_t kConnections = 2;
/// One response in this many is re-checked against the oracle.
constexpr size_t kSampleEvery = 32;

/// Server CPU per 1,000 answered requests of one window: the process's
/// CPU time over the window (`process_cpu_s`) less the client threads'
/// own. CPU time is what the read path spends, so unlike client latency
/// it does not move when the host steals a vCPU.
double ServerCpuMsPer1k(double process_cpu_s, const LoopOutcome& window) {
  if (window.ok == 0) return 0.0;
  return 1e6 * (process_cpu_s - window.client_cpu_s) /
         static_cast<double>(window.ok);
}

}  // namespace

void RunAnnotateRead(const RunOptions& options, Report* report) {
  double setup_s = 0.0;
  std::unique_ptr<ServeHost> host =
      StartHost(options, /*stream=*/false, report, &setup_s);
  if (host == nullptr) return;

  auto heldout_or = ReadJourneysBinary(InputPaths(options.dir).heldout);
  if (!heldout_or.ok()) {
    report->FailCheck("held-out journeys: " + heldout_or.status().ToString());
    return;
  }
  AnnotateRequests requests(HeldoutStays(heldout_or.value()), options.seed);
  std::vector<std::unique_ptr<serve::NetClient>> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    auto client_or = ConnectLoopback(host->port());
    if (!client_or.ok()) {
      report->FailCheck("connect: " + client_or.status().ToString());
      return;
    }
    clients.push_back(std::move(client_or).value());
  }

  report->AddShape("workload", "annotate-read");
  report->AddShape("seed", static_cast<double>(options.seed));
  report->AddShape("pois", static_cast<double>(host->dataset().pois.size()));
  report->AddShape("journeys", static_cast<double>(host->journeys()));
  report->AddShape("shards", static_cast<double>(ServePack().serve_shards));
  report->AddShape("server_loops", static_cast<double>(kServerLoops));
  report->AddShape("pool_width", static_cast<double>(DefaultParallelism()));
  report->AddShape("client_threads", static_cast<double>(2 * kConnections));
  report->AddShape("connections", static_cast<double>(kConnections));
  report->AddShape("inflight_limit", "none (open loop)");
  report->AddShape("nominal_qps", kNominalQps);

  StealMonitor steal;
  // The windowed percentile of one measured window, host-steal slices
  // left out.
  auto windowed = [&](const LoopOutcome& o,
                      const std::vector<TimedSample>& samples, double q,
                      const char* what) {
    return WindowedOrFail(
        samples, o.window_s, q, what, report, kWindowSlices,
        NoisySlices(steal, o.window_start_s, o.window_s, kWindowSlices));
  };
  auto account = [&](const LoopOutcome& outcome) {
    report->CountAttempted(outcome.ok + outcome.shed + outcome.failed);
    report->CountFailed(outcome.shed + outcome.failed);
  };

  // The nominal window: the run's seconds, or half of them when the
  // traced half follows.
  const double nominal_s =
      options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<AnnotateSample> samples;
  const double cpu0_s = ProcessCpuSeconds();
  LoopOutcome nominal =
      RunAnnotateLoad(clients, requests, kNominalQps, kWarmupSeconds,
                      nominal_s, options.seed, kSampleEvery, &samples);
  const double cpu_ms_per_1k =
      ServerCpuMsPer1k(ProcessCpuSeconds() - cpu0_s, nominal);
  report->AddShape("client_cpu_s", nominal.client_cpu_s);
  account(nominal);
  const double p50_ms =
      1e3 * windowed(nominal, nominal.latency, 0.5, "annotate p50");
  const double p99_ms =
      1e3 * windowed(nominal, nominal.latency, 0.99, "annotate p99");
  const double late_p99_ms =
      1e3 * windowed(nominal, nominal.late, 0.99, "generator lateness");
  report->AddShape("gen.late_p99_ms", late_p99_ms);
  std::vector<bool> noisy = NoisySlices(steal, nominal.window_start_s,
                                        nominal.window_s, kWindowSlices);
  report->AddShape("steal_slices",
                   static_cast<double>(std::count(noisy.begin(), noisy.end(),
                                                  true)));
  if (nominal.ok != nominal.sent) {
    report->FailCheck("nominal window: " +
                      std::to_string(nominal.sent - nominal.ok) +
                      " requests not answered successfully");
  }

  size_t checked = 0;
  size_t mismatches = OracleMismatches(*host->store().Acquire(), requests,
                                       samples, &checked);
  report->AddShape("oracle_checked_stays", static_cast<double>(checked));
  if (checked == 0 || mismatches > 0) {
    report->FailCheck(std::to_string(mismatches) + " of " +
                      std::to_string(checked) +
                      " sampled stays disagree with the voting recognizer");
  }

  // The untraced run ends here. The traced run adds a traced window at
  // the same rate, then climbs the capacity ladder untraced.
  report->AddShape("annotate_p50_ms", p50_ms);
  report->AddShape("annotate_p99_ms", p99_ms);
  report->AddShape("annotate_cpu_ms_per_1k", cpu_ms_per_1k);
  if (!options.trace) {
    host.reset();
    report->AddMetric("setup_s", setup_s, "s");
    report->AddMetric("peak_rss_mb", PeakRssMb(), "MiB");
    // Server CPU seconds per 1,000 annotates.
    report->AddMetric("headline_s", cpu_ms_per_1k / 1e3, "s");
    return;
  }
  {
    obs::Tracer::Get().Clear();
    obs::MetricsRegistry::Get().ResetAll();
    obs::SetEnabled(true);
    const double traced_cpu0_s = ProcessCpuSeconds();
    LoopOutcome traced =
        RunAnnotateLoad(clients, requests, kNominalQps, kWarmupSeconds,
                        nominal_s, options.seed + 1, 1, nullptr);
    const double traced_cpu_ms_per_1k =
        ServerCpuMsPer1k(ProcessCpuSeconds() - traced_cpu0_s, traced);
    obs::SetEnabled(false);
    account(traced);
    SpanBreakdown spans = AnalyzeSpans(obs::Tracer::Get().Snapshot(), "");
    AddServeLayerMetrics(traced, spans, report);
    // The read path's CPU less its front-end and batch spans: the
    // batcher's waits and wake-ups, admission, and kernel socket time.
    // Spans are wall time, so a stolen vCPU inside one lowers this.
    const double spans_s = spans.Total("serve/net_read_burst") +
                           spans.Total("serve/net_write_burst") +
                           spans.Total("serve/annotate_batch_sharded");
    report->AddMetric("trace.annotate_cpu_ms_per_1k", traced_cpu_ms_per_1k,
                      "ms");
    report->AddMetric(
        "serve.cpu_unattributed_ms_per_1k",
        traced_cpu_ms_per_1k -
            (traced.ok > 0 ? 1e6 * spans_s / static_cast<double>(traced.ok)
                           : 0.0),
        "ms");
    const double traced_p50_ms =
        1e3 * windowed(traced, traced.latency, 0.5, "traced p50");
    report->AddMetric("gen.late_p99_ms", late_p99_ms, "ms");
    report->AddMetric("trace.annotate_p50_ms", traced_p50_ms, "ms");
    report->AddMetric("trace.overhead_annotate_p50_ms", traced_p50_ms - p50_ms,
                      "ms");
    report->AddMetric("client.annotate_p50_ms", p50_ms, "ms");
    report->AddMetric("client.annotate_p99_ms", p99_ms, "ms");
  }

  // Capacity: climb the fixed ladder until a rung misses the SLO, sheds,
  // falls behind, or the generator itself runs late. Tail and shedding
  // are judged per slice of the rung (the median slice counts), and a
  // rung passes if any of kRungAttempts tries passes, so a scheduler
  // stall does not end the climb.
  std::vector<Rung> ladder;
  auto measure = [&](double rate) {
    LoopOutcome outcome =
        RunAnnotateLoad(clients, requests, rate, kWarmupSeconds, kRungSeconds,
                        options.seed, 1, nullptr);
    Rung rung;
    rung.offered_qps = rate;
    rung.achieved_qps =
        static_cast<double>(outcome.completed_in_window) / outcome.window_s;
    rung.completed = outcome.ok;
    std::vector<bool> skip = NoisySlices(steal, outcome.window_start_s,
                                         outcome.window_s, kRungSlices);
    rung.shed = static_cast<size_t>(MedianSliceCount(
        outcome.shed_at, outcome.window_s, kRungSlices, skip));
    rung.failed = outcome.failed;
    if (auto p = WindowedPercentile(outcome.latency, outcome.window_s,
                                    kRungSlices, 0.99, skip)) {
      rung.p99_ms = 1e3 * *p;
    }
    if (auto p = WindowedPercentile(outcome.late, outcome.window_s,
                                    kRungSlices, 0.99, skip)) {
      rung.gen_late_p99_ms = 1e3 * *p;
    }
    return rung;
  };
  // One rung: up to kRungAttempts tries, logged in the load line. Only
  // passing rungs count as operations: the rung that ends the climb
  // overloads the server on purpose.
  auto try_rung = [&](double rate, const std::string& label) {
    Rung rung = measure(rate);
    RungVerdict verdict = JudgeRung(rung);
    for (int retry = 1; retry < kRungAttempts && verdict != RungVerdict::kPass;
         ++retry) {
      Rung again = measure(rate);
      if (JudgeRung(again) == RungVerdict::kPass) {
        rung = again;
        verdict = RungVerdict::kPass;
      }
    }
    char line[192];
    std::snprintf(line, sizeof(line),
                  "offered %.0f achieved %.0f p99 %.3fms late_p99 %.3fms "
                  "shed/slice %zu failed %zu %s",
                  rung.offered_qps, rung.achieved_qps,
                  rung.p99_ms.value_or(-1.0),
                  rung.gen_late_p99_ms.value_or(-1.0), rung.shed, rung.failed,
                  verdict == RungVerdict::kPass   ? "pass"
                  : verdict == RungVerdict::kFail ? "fail"
                                                  : "invalid");
    report->AddShape(label, line);
    if (verdict == RungVerdict::kPass) report->CountAttempted(rung.completed);
    return std::make_pair(rung, verdict);
  };
  for (double rate : GeometricLadder(kLadderLo, kLadderHi, kLadderRatio)) {
    auto [rung, verdict] =
        try_rung(rate, "rung." + std::to_string(ladder.size() + 1));
    ladder.push_back(rung);
    if (verdict != RungVerdict::kPass) break;
  }
  Capacity capacity = SelectCapacity(ladder);
  // A host too busy to hold even the base rung gets a short fixed
  // descent below it, so the run still reports a measured rate.
  for (size_t i = 0; capacity.qps <= 0.0 && i < kBelowLadder.size(); ++i) {
    auto [rung, verdict] = try_rung(kBelowLadder[i] * kLadderLo,
                                    "rung.below." + std::to_string(i + 1));
    if (verdict == RungVerdict::kPass) capacity.qps = rung.offered_qps;
  }
  report->AddShape("capacity_limited_by_generator",
                   capacity.limited_by_generator ? 1.0 : 0.0);
  if (capacity.qps <= 0.0) {
    report->FailCheck("no ladder rung met the SLO");
  }
  host.reset();
  report->AddMetric("annotate_capacity_qps", capacity.qps, "1/s");
}

}  // namespace csd::perfbench
