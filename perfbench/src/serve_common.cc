#include "serve_common.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "util/rng.h"

namespace csd::perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

obs::Histogram& FindHistogram(const std::string& name) {
  // Only called after the program registered the histogram; the bounds
  // passed here are ignored for an existing one.
  return obs::MetricsRegistry::Get().GetHistogram(name, "", {});
}

double Mean(const std::vector<TimedSample>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const TimedSample& s : v) sum += s.value;
  return sum / static_cast<double>(v.size());
}

void LogSetup(const HostSetup& setup) {
  std::fprintf(stderr,
               "perfbench: set-up %.2fs (read %.2f+%.2f, dataset %.2f, "
               "snapshot %.2f, start %.2f, first answer %.3f)\n",
               setup.total_s, setup.read_pois_s, setup.read_journeys_s,
               setup.dataset_s, setup.snapshot_s, setup.start_s,
               setup.first_answer_s);
}

}  // namespace

double CounterValue(const std::string& name) {
  return static_cast<double>(
      obs::MetricsRegistry::Get().GetCounter(name, "").Value());
}

double HistogramQuantile(const std::string& name, double q) {
  obs::Histogram& h = FindHistogram(name);
  std::vector<uint64_t> counts = h.BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const std::vector<double>& bounds = h.bounds();
  double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    double next = seen + static_cast<double>(counts[b]);
    if (next >= rank && counts[b] > 0) {
      double lo = b == 0 ? 0.0 : bounds[b - 1];
      if (b >= bounds.size()) return lo;  // +Inf bucket: its lower edge
      double hi = bounds[b];
      return lo + (hi - lo) * (rank - seen) / static_cast<double>(counts[b]);
    }
    seen = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double HistogramMean(const std::string& name) {
  obs::Histogram& h = FindHistogram(name);
  uint64_t n = h.Count();
  return n == 0 ? 0.0 : h.Sum() / static_cast<double>(n);
}

double WindowedOrFail(const std::vector<TimedSample>& samples,
                      double window_s, double q, const std::string& what,
                      Report* report, size_t slices,
                      const std::vector<bool>& skip) {
  std::optional<double> p =
      WindowedPercentile(samples, window_s, slices, q, skip);
  if (!p.has_value()) {
    report->FailCheck(what + ": " + std::to_string(samples.size()) +
                      " samples cannot support this percentile in every "
                      "slice");
    return 0.0;
  }
  return *p;
}

std::vector<bool> NoisySlices(const StealMonitor& steal, double start_s,
                              double window_s, size_t slices) {
  return steal.NoisySlices(start_s, window_s, slices, kMaxStealShare);
}

std::unique_ptr<ServeHost> StartHost(const RunOptions& options, bool stream,
                                     Report* report, double* setup_s) {
  if (options.trace) {
    obs::Tracer::Get().Clear();
    obs::MetricsRegistry::Get().ResetAll();
    obs::SetEnabled(true);
  }
  HostSetup setup;
  auto host_or =
      ServeHost::Start(options.dir, stream, options.process_start_s, &setup);
  obs::SetEnabled(false);
  if (!host_or.ok()) {
    report->FailCheck("set-up: " + host_or.status().ToString());
    return nullptr;
  }
  std::unique_ptr<ServeHost> host = std::move(host_or).value();
  *setup_s = setup.total_s;
  LogSetup(setup);
  if (!options.trace) return host;

  SpanBreakdown spans = AnalyzeSpans(obs::Tracer::Get().Snapshot(), "");
  const double db_build_s = spans.Total("poi/db_build");
  const double snapshot_build_s = spans.Total("serve/snapshot_build_sharded");
  report->AddMetric("trace.setup_s", setup.total_s, "s");
  report->AddMetric("setup.unattributed_s",
                    setup.total_s - setup.read_pois_s -
                        setup.read_journeys_s - db_build_s -
                        snapshot_build_s,
                    "s");
  report->AddMetric("io.read_pois_s", setup.read_pois_s, "s");
  report->AddMetric("io.read_journeys_s", setup.read_journeys_s, "s");
  report->AddMetric("poi.db_build_s", db_build_s, "s");
  report->AddMetric("core.popularity_s", spans.Total("csd_build/popularity"),
                    "s");
  report->AddMetric("core.popularity_clustering_s",
                    spans.Total("csd_build/popularity_clustering"), "s");
  report->AddMetric("core.purification_s",
                    spans.Total("csd_build/purification"), "s");
  report->AddMetric("core.unit_merging_s",
                    spans.Total("csd_build/unit_merging"), "s");
  report->AddMetric("shard.stage_caches_s", spans.Total("shard/stage_caches"),
                    "s");
  report->AddMetric("shard.build_s", spans.Total("shard/csd_build"), "s");
  double builds = CounterValue("csd_shard_builds_total");
  double pois = static_cast<double>(host->dataset().pois.size());
  report->AddMetric(
      "shard.halo_ratio",
      builds > 0.0 ? CounterValue("csd_shard_halo_pois_total") /
                             (builds * pois) -
                         1.0
                   : 0.0,
      "ratio");
  report->AddMetric("serve.snapshot_build_s", snapshot_build_s, "s");
  report->AddMetric("pool.tasks", CounterValue("csd_pool_tasks_total"),
                    "count");
  report->AddMetric("pool.steals", CounterValue("csd_pool_steals_total"),
                    "count");
  report->AddMetric("pool.loops", CounterValue("csd_pool_loops_total"),
                    "count");
  return host;
}

Result<double> MeasureSetup(const std::string& workload,
                            const RunOptions& options) {
  if (workload == "mine-batch") return MineBatchSetup(options);
  if (workload != "annotate-read" && workload != "ingest-mixed") {
    return Status::InvalidArgument("unknown workload " + workload);
  }
  HostSetup setup;
  auto host_or = ServeHost::Start(options.dir, workload == "ingest-mixed",
                                  options.process_start_s, &setup);
  if (!host_or.ok()) return host_or.status();
  LogSetup(setup);
  return setup.total_s;
}

AnnotateRequests::AnnotateRequests(const std::vector<StayPoint>& stays,
                                   uint64_t seed,
                                   const BoundingBox* dirty_region) {
  std::vector<StayPoint> inside, outside;
  for (const StayPoint& s : stays) {
    (dirty_region != nullptr && dirty_region->Contains(s.position) ? inside
                                                                   : outside)
        .push_back(s);
  }
  Rng rng(seed * 7919 + 17);
  auto draw = [&rng](const std::vector<StayPoint>& pool) {
    return pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  };
  templates_.resize(kTemplates);
  for (size_t t = 0; t < kTemplates; ++t) {
    const std::vector<StayPoint>& pool =
        dirty_region != nullptr && t % 2 == 0 ? inside : outside;
    size_t n = static_cast<size_t>(rng.UniformInt(1, 4));
    for (size_t i = 0; i < n; ++i) templates_[t].push_back(draw(pool));
  }
}

const std::vector<StayPoint>& AnnotateRequests::Template(size_t conn,
                                                         size_t k) const {
  return templates_[(k * 7919 + conn * 104729) % templates_.size()];
}

FrameEncoder AnnotateRequests::Encoder(size_t conn) const {
  return [this, conn](size_t k, uint32_t id, std::vector<uint8_t>* out) {
    serve::AppendAnnotateRequest(id, 0, Template(conn, k), out);
  };
}

ResponseCheck AnnotateCheck(const AnnotateRequests& requests, size_t conn,
                            uint64_t seed, size_t sample_every,
                            std::vector<AnnotateSample>* samples) {
  return [&requests, conn, seed, sample_every, samples](
             size_t k, const serve::NetResponse& response) {
    if (response.type != serve::FrameType::kAnnotateResp ||
        response.snapshot_version == 0 ||
        response.units.size() != requests.Template(conn, k).size() ||
        response.semantic_bits.size() != response.units.size()) {
      return false;
    }
    if (samples != nullptr &&
        Mix(seed ^ (static_cast<uint64_t>(conn) << 40) ^ k) % sample_every ==
            0) {
      samples->push_back({conn, k, response.units, response.semantic_bits});
    }
    return true;
  };
}

size_t OracleMismatches(const serve::CsdSnapshot& snapshot,
                        const AnnotateRequests& requests,
                        const std::vector<AnnotateSample>& samples,
                        size_t* checked_stays) {
  size_t mismatches = 0;
  *checked_stays = 0;
  for (const AnnotateSample& sample : samples) {
    const std::vector<StayPoint>& stays = requests.Template(sample.conn,
                                                            sample.k);
    for (size_t i = 0; i < stays.size(); ++i) {
      UnitId unit = kNoUnit;
      SemanticProperty semantic =
          snapshot.recognizer().RecognizeWithUnit(stays[i].position, &unit);
      ++*checked_stays;
      if (unit != sample.units[i] ||
          semantic.bits() != sample.semantic_bits[i]) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

LoopOutcome RunAnnotateLoad(
    std::vector<std::unique_ptr<serve::NetClient>>& clients,
    const AnnotateRequests& requests, double rate, double warmup_s,
    double duration_s, uint64_t seed, size_t sample_every,
    std::vector<AnnotateSample>* samples) {
  const size_t conns = clients.size();
  const double per_conn = rate / static_cast<double>(conns);
  const size_t warmup = static_cast<size_t>(std::llround(per_conn * warmup_s));
  const size_t count =
      warmup + static_cast<size_t>(std::llround(per_conn * duration_s));
  auto start = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  std::vector<LoopOutcome> parts(conns);
  std::vector<std::vector<AnnotateSample>> conn_samples(conns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      // Connections interleave their schedules evenly.
      auto offset =
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(static_cast<double>(c) / rate));
      parts[c] = RunOpenLoop(
          clients[c].get(), start + offset, per_conn, count, warmup,
          requests.Encoder(c),
          AnnotateCheck(requests, c, seed, sample_every,
                        samples != nullptr ? &conn_samples[c] : nullptr));
    });
  }
  for (std::thread& t : threads) t.join();
  if (samples != nullptr) {
    for (auto& s : conn_samples) {
      samples->insert(samples->end(), s.begin(), s.end());
    }
  }
  return Merge(std::move(parts));
}

void AddServeLayerMetrics(const LoopOutcome& traced, const SpanBreakdown& spans,
                          Report* report) {
  report->AddMetric("net.read_burst_s", spans.Total("serve/net_read_burst"),
                    "s");
  report->AddMetric("net.write_burst_s", spans.Total("serve/net_write_burst"),
                    "s");
  report->AddMetric("net.frames_read",
                    CounterValue("csd_net_frames_read_total"), "count");
  report->AddMetric("net.bytes_read", CounterValue("csd_net_bytes_read_total"),
                    "bytes");
  report->AddMetric("net.bytes_written",
                    CounterValue("csd_net_bytes_written_total"), "bytes");
  report->AddMetric("net.backpressure_stalls",
                    CounterValue("csd_net_backpressure_stalls_total"), "count");
  report->AddMetric("net.shed", CounterValue("csd_net_shed_total"), "count");

  const double execute_s = spans.Total("serve/annotate_batch_sharded");
  const double batches = CounterValue("csd_serve_batches_total");
  report->AddMetric("serve.batch_execute_s", execute_s, "s");
  report->AddMetric("serve.batches", batches, "count");
  report->AddMetric("serve.batch_size_mean",
                    HistogramMean("csd_serve_batch_size"), "count");
  const double server_p50_s =
      HistogramQuantile("csd_serve_annotate_latency_seconds", 0.5);
  const double execute_mean_s = batches > 0.0 ? execute_s / batches : 0.0;
  report->AddMetric("serve.queue_wait_p50_ms",
                    1e3 * std::max(0.0, server_p50_s - execute_mean_s), "ms");
  report->AddMetric(
      "serve.server_latency_p99_ms",
      1e3 * HistogramQuantile("csd_serve_annotate_latency_seconds", 0.99),
      "ms");
  report->AddMetric("serve.rejected", CounterValue("csd_serve_rejected_total"),
                    "count");
  report->AddMetric("serve.deadline_exceeded",
                    CounterValue("csd_serve_deadline_exceeded_total"), "count");
  const double server_mean_s =
      HistogramMean("csd_serve_annotate_latency_seconds");
  report->AddMetric("unattributed_s",
                    Mean(traced.latency) - Mean(traced.late) -
                        server_mean_s,
                    "s");
}

}  // namespace csd::perfbench
