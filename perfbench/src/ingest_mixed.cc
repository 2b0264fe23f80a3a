// ingest-mixed: the megacity-steady scenario served with the stream
// layer attached. The pack's replay fleet, in one corner of the city,
// sends INGEST_FIX frames at a fixed fix rate, the benchmark's ticker
// calls StreamIngestor::PublishTick at csdctl's cadence, and annotate
// requests run alongside at the pack's rate, alternating between dirty
// and clean tiles.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/city_semantic_diagram.h"
#include "inputs.h"
#include "io/binary_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve_common.h"
#include "stats.h"
#include "traj/stay_point_detector.h"
#include "util/parallel.h"
#include "workloads.h"

namespace csd::perfbench {

namespace {

/// Publish cadence of the benchmark's ticker: csdctl serve's default
/// --stream-tick-ms.
constexpr double kTickPeriodS = 1.0;
/// Freshness samples come in tick-sized clumps, and the annotate stream
/// runs at the pack's 500 QPS, so their windowed percentiles use fewer,
/// longer slices than kWindowSlices: in a 10 s run each slice still
/// holds the 1,000 samples a p99 needs.
constexpr size_t kFreshnessSlices = 5;
constexpr size_t kAnnotateSlices = 4;

/// One INGEST_FIX frame: fixes [begin, end) of one user's trace.
struct FixFrame {
  uint32_t user;
  size_t begin, end;
};

/// The fleet's frames in send order: the traces merged into one stream
/// ordered by fix time (as synth::MakeReplaySet merges them), cut into
/// runs of one user's consecutive fixes of at most kMaxFixesPerFrame, as
/// serve_load's scenario client sends them.
std::vector<FixFrame> FleetFrames(const std::vector<Trajectory>& fleet) {
  struct Fix {
    Timestamp time;
    uint32_t user;
  };
  std::vector<Fix> stream;
  for (uint32_t u = 0; u < fleet.size(); ++u) {
    for (const GpsPoint& p : fleet[u].points) stream.push_back({p.time, u});
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Fix& a, const Fix& b) { return a.time < b.time; });
  std::vector<size_t> next(fleet.size(), 0);
  std::vector<FixFrame> frames;
  for (const Fix& f : stream) {
    size_t i = next[f.user]++;
    if (!frames.empty() && frames.back().user == f.user &&
        frames.back().end == i &&
        i - frames.back().begin < Sizes::kMaxFixesPerFrame) {
      ++frames.back().end;
    } else {
      frames.push_back({f.user, i, i + 1});
    }
  }
  return frames;
}

/// A streamed stay the freshness clock follows: the fix that closes it
/// (the batch detector's window end), by user and index.
struct ClosedStay {
  uint32_t user;
  size_t closing_fix;
};

/// Definition 5 as traj/stay_point_detector.cc runs it, also reporting
/// the index of the fix that ended each window (n for a trace-end stay).
std::vector<std::pair<StayPoint, size_t>> DetectWithClosingFix(
    const Trajectory& trace, const StayPointOptions& options) {
  std::vector<std::pair<StayPoint, size_t>> out;
  const std::vector<GpsPoint>& pts = trace.points;
  size_t n = pts.size(), i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n && Distance(pts[i].position, pts[j].position) <=
                        options.distance_threshold_m) {
      ++j;
    }
    if (j > i + 1 &&
        pts[j - 1].time - pts[i].time >= options.time_threshold_s) {
      Vec2 mean_pos;
      double mean_time = 0.0;
      double count = static_cast<double>(j - i);
      for (size_t k = i; k < j; ++k) {
        mean_pos += pts[k].position;
        mean_time += static_cast<double>(pts[k].time);
      }
      out.emplace_back(StayPoint(mean_pos / count,
                                 static_cast<Timestamp>(mean_time / count)),
                       j);
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

struct TickRecord {
  double start = 0.0, end = 0.0;
  size_t pending_before = 0;
  size_t history_after = 0;
  stream::RebuildTickReport report;
};

/// Calls PublishTick on a fixed-rate schedule (a late tick starts at
/// once; no tick is skipped) until stopped, then once more.
class Ticker {
 public:
  explicit Ticker(stream::StreamIngestor* ingestor)
      : ingestor_(ingestor), thread_([this] { Run(); }) {}
  ~Ticker() { Stop(); }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  const std::vector<TickRecord>& ticks() const { return ticks_; }

 private:
  void Tick() {
    TickRecord record;
    record.pending_before = ingestor_->pending_stays();
    record.start = NowSeconds();
    record.report = ingestor_->PublishTick();
    record.end = NowSeconds();
    record.history_after = ingestor_->accumulator().total_stays();
    ticks_.push_back(record);
  }

  void Run() {
    auto next = std::chrono::steady_clock::now();
    const auto period =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(kTickPeriodS));
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      next += period;
      if (cv_.wait_until(lock, next, [this] { return stop_; })) break;
      lock.unlock();
      Tick();
      lock.lock();
    }
    lock.unlock();
    Tick();  // publishes whatever the last frames folded
  }

  stream::StreamIngestor* ingestor_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mutex_
  std::vector<TickRecord> ticks_;  // written by the ticker thread only
  std::thread thread_;             // last: Run() uses every member above
};

Result<std::string> DiagramBytes(const CitySemanticDiagram& diagram,
                                 const std::string& path) {
  Status written = WriteCsdBinary(path, diagram);
  if (!written.ok()) return written;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

double MedianOf(std::vector<double> v) {
  return Median(std::move(v)).value_or(0.0);
}

}  // namespace

void RunIngestMixed(const RunOptions& options, Report* report) {
  double setup_s = 0.0;
  std::unique_ptr<ServeHost> host =
      StartHost(options, /*stream=*/true, report, &setup_s);
  if (host == nullptr) return;
  stream::StreamIngestor* ingestor = host->ingestor();
  const scenario::ScenarioPack& pack = ServePack();
  const double annotate_qps = pack.load.front().annotate_qps;

  InputPaths paths(options.dir);
  auto fleet_or = ReadFleet(paths.fleet);
  auto heldout_or = ReadJourneysBinary(paths.heldout);
  if (!fleet_or.ok() || !heldout_or.ok()) {
    report->FailCheck("fleet / held-out inputs unreadable");
    return;
  }
  const std::vector<Trajectory>& fleet = fleet_or.value();
  AnnotateRequests requests(HeldoutStays(heldout_or.value()), options.seed,
                            &pack.replay.region);

  // One connection carries the frames, so per-user order holds.
  const std::vector<FixFrame> frames = FleetFrames(fleet);
  // frame_of[u][i]: the frame carrying user u's fix i.
  std::vector<std::vector<uint32_t>> frame_of(fleet.size());
  for (uint32_t u = 0; u < fleet.size(); ++u) {
    frame_of[u].resize(fleet[u].points.size());
  }
  for (size_t k = 0; k < frames.size(); ++k) {
    for (size_t i = frames[k].begin; i < frames[k].end; ++i) {
      frame_of[frames[k].user][i] = static_cast<uint32_t>(k);
    }
  }
  std::vector<ClosedStay> closed;
  size_t total_fixes = 0;
  for (uint32_t u = 0; u < fleet.size(); ++u) {
    const std::vector<GpsPoint>& pts = fleet[u].points;
    total_fixes += pts.size();
    auto detected = DetectWithClosingFix(fleet[u], StayPointOptions{});
    if (detected.size() != DetectStayPoints(fleet[u]).size()) {
      report->FailCheck("closing-fix detector disagrees with DetectStayPoints");
      return;
    }
    for (const auto& [stay, closing_fix] : detected) {
      if (closing_fix < pts.size()) closed.push_back({u, closing_fix});
    }
  }
  const double frame_rate = static_cast<double>(frames.size()) *
                            Sizes::kFleetFixesPerSecond /
                            static_cast<double>(total_fixes);
  // The run streams for `seconds`; the fleet was sized for it.
  const size_t frame_count = std::min(
      frames.size(),
      static_cast<size_t>(std::llround(frame_rate * options.seconds)));

  auto ingest_or = ConnectLoopback(host->port());
  auto annotate_or = ConnectLoopback(host->port());
  if (!ingest_or.ok() || !annotate_or.ok()) {
    report->FailCheck("connect failed");
    return;
  }
  std::unique_ptr<serve::NetClient> ingest_client =
      std::move(ingest_or).value();
  std::vector<std::unique_ptr<serve::NetClient>> annotate_clients;
  annotate_clients.push_back(std::move(annotate_or).value());

  report->AddShape("workload", "ingest-mixed");
  report->AddShape("scenario", pack.name);
  report->AddShape("seed", static_cast<double>(options.seed));
  report->AddShape("pois", static_cast<double>(host->dataset().pois.size()));
  report->AddShape("bootstrap_stays",
                   static_cast<double>(host->dataset().stays.size()));
  report->AddShape("shards", static_cast<double>(pack.serve_shards));
  report->AddShape("server_loops", static_cast<double>(kServerLoops));
  report->AddShape("pool_width", static_cast<double>(DefaultParallelism()));
  report->AddShape("client_threads", 4.0);
  report->AddShape("connections", 2.0);
  report->AddShape("inflight_limit", "none (open loop)");
  report->AddShape("fleet_users", static_cast<double>(fleet.size()));
  report->AddShape("fix_rate", Sizes::kFleetFixesPerSecond);
  report->AddShape("frame_rate", frame_rate);
  report->AddShape("mean_fixes_per_frame",
                   static_cast<double>(total_fixes) /
                       static_cast<double>(frames.size()));
  report->AddShape("annotate_qps", annotate_qps);
  report->AddShape("tick_period_s", kTickPeriodS);

  if (options.trace) {
    obs::Tracer::Get().Clear();
    obs::MetricsRegistry::Get().ResetAll();
    obs::SetEnabled(true);
  }
  StealMonitor steal;
  const double run_start = NowSeconds();
  LoopOutcome ingest, annotate;
  {
    Ticker ticker(ingestor);
    std::thread ingest_thread([&] {
      ingest = RunOpenLoop(
          ingest_client.get(),
          std::chrono::steady_clock::now() + std::chrono::milliseconds(5),
          frame_rate, frame_count, /*warmup=*/0,
          [&](size_t k, uint32_t id, std::vector<uint8_t>* out) {
            const FixFrame& f = frames[k];
            serve::AppendIngestFixRequest(
                id, f.user,
                std::span<const GpsPoint>(fleet[f.user].points.data() + f.begin,
                                          f.end - f.begin),
                out);
          },
          [](size_t, const serve::NetResponse& response) {
            return response.type == serve::FrameType::kTextResp;
          });
    });
    annotate = RunAnnotateLoad(annotate_clients, requests, annotate_qps,
                               /*warmup_s=*/0.0, options.seconds, options.seed,
                               1, nullptr);
    ingest_thread.join();
    ticker.Stop();
    const std::vector<TickRecord> ticks = ticker.ticks();

    for (const LoopOutcome* o : {&ingest, &annotate}) {
      report->CountAttempted(o->ok + o->shed + o->failed);
      report->CountFailed(o->shed + o->failed);
    }
    size_t failed_ticks = 0;
    for (const TickRecord& t : ticks) failed_ticks += !t.report.status.ok();
    report->CountAttempted(ticks.size());
    report->CountFailed(failed_ticks);
    if (ingest.ok != frame_count || annotate.ok != annotate.sent ||
        failed_ticks > 0) {
      report->FailCheck("ingest/annotate/tick failures during the run");
    }

    // Freshness: closing fix sent -> end of the first tick that started
    // after the fix was folded (its Drain saw the stay), in three parts
    // that add up to it: send to fold, fold to tick start, the tick.
    // Each sample sits at its closing fix's due time in the ingest window.
    std::vector<TimedSample> freshness;
    double fold_lag_s = 0.0, tick_wait_s = 0.0, publish_s = 0.0;
    for (const ClosedStay& c : closed) {
      auto folded = host->fold_log().FoldedBy(c.user, c.closing_fix);
      if (!folded.has_value()) continue;  // beyond the streamed frames
      auto tick = std::find_if(ticks.begin(), ticks.end(),
                               [&](const TickRecord& t) {
                                 return t.start >= *folded;
                               });
      if (tick == ticks.end()) {
        report->FailCheck("a folded stay was never published");
        break;
      }
      const size_t frame = frame_of[c.user][c.closing_fix];
      const double sent = ingest.sent_at[frame];
      freshness.push_back(
          {static_cast<double>(frame) / frame_rate, tick->end - sent});
      fold_lag_s += *folded - sent;
      tick_wait_s += tick->start - *folded;
      publish_s += tick->end - tick->start;
    }

    const double run_s = NowSeconds() - run_start;
    report->AddShape("run_s", run_s);
    report->AddShape("ticks", static_cast<double>(ticks.size()));
    report->AddShape("freshness_samples",
                     static_cast<double>(freshness.size()));
    report->AddShape(
        "history_stays",
        static_cast<double>(ingestor->accumulator().total_stays()));
    // Windowed percentiles over the stream window, host-steal slices
    // left out.
    auto windowed = [&](const std::vector<TimedSample>& samples, double q,
                        const char* what, size_t slices) {
      return WindowedOrFail(samples, ingest.window_s, q, what, report, slices,
                            NoisySlices(steal, ingest.window_start_s,
                                        ingest.window_s, slices));
    };
    double late_p99_ms =
        1e3 * windowed(ingest.late, 0.99, "generator lateness", kWindowSlices);
    report->AddShape("gen.late_p99_ms", late_p99_ms);

    // Client latencies swing with host noise (README.md): gated runs put
    // them in the load line, traced runs report them ungated.
    const double annotate_p50_ms =
        1e3 * windowed(annotate.latency, 0.5, "annotate p50", kAnnotateSlices);
    const double annotate_p99_ms = 1e3 * windowed(annotate.latency, 0.99,
                                                  "annotate p99",
                                                  kAnnotateSlices);
    const double ack_p99_ms =
        1e3 * windowed(ingest.latency, 0.99, "ingest ack p99", kWindowSlices);
    report->AddShape("annotate_p50_ms", annotate_p50_ms);
    report->AddShape("annotate_p99_ms", annotate_p99_ms);
    report->AddShape("ingest_ack_p99_ms", ack_p99_ms);
    const double freshness_p50_s =
        windowed(freshness, 0.5, "freshness p50", kFreshnessSlices);
    const double freshness_p99_s =
        windowed(freshness, 0.99, "freshness p99", kFreshnessSlices);
    report->AddShape("freshness_p50_s", freshness_p50_s);
    report->AddShape("freshness_p99_s", freshness_p99_s);
    if (!options.trace) {
      report->AddMetric("headline_s", freshness_p99_s, "s");
    } else {
      const double n = std::max<double>(1.0, freshness.size());
      report->AddMetric("freshness.mean_s",
                        (fold_lag_s + tick_wait_s + publish_s) / n, "s");
      report->AddMetric("freshness.fold_lag_s", fold_lag_s / n, "s");
      report->AddMetric("freshness.tick_wait_s", tick_wait_s / n, "s");
      report->AddMetric("freshness.publish_s", publish_s / n, "s");
      report->AddMetric("client.annotate_p50_ms", annotate_p50_ms, "ms");
      report->AddMetric("client.annotate_p99_ms", annotate_p99_ms, "ms");
      report->AddMetric("client.ingest_ack_p99_ms", ack_p99_ms, "ms");
      report->AddMetric("gen.late_p99_ms", late_p99_ms, "ms");
      report->AddMetric("stream.fold_s", host->fold_seconds(), "s");
      report->AddMetric("stream.fixes",
                        static_cast<double>(ingestor->fixes_ingested()),
                        "count");
      report->AddMetric("stream.stays_emitted",
                        static_cast<double>(ingestor->stays_emitted()),
                        "count");
      report->AddMetric("stream.late_dropped",
                        static_cast<double>(ingestor->late_dropped()), "count");
      std::vector<double> tick_s, early, late, early_hist, late_hist;
      double rebuilt = 0.0, in_tile = 0.0, published = 0.0;
      size_t pending_max = 0;
      const double tenth = run_s / 10.0;
      for (const TickRecord& t : ticks) {
        double d = t.end - t.start;
        tick_s.push_back(d);
        if (t.start < run_start + tenth) {
          early.push_back(d);
          early_hist.push_back(static_cast<double>(t.history_after));
        } else if (t.start >= run_start + run_s - tenth) {
          late.push_back(d);
          late_hist.push_back(static_cast<double>(t.history_after));
        }
        if (t.report.shards_rebuilt > 0) {
          rebuilt += static_cast<double>(t.report.shards_rebuilt);
          in_tile += static_cast<double>(t.report.shards_in_tile);
          published += 1.0;
        }
        pending_max = std::max(pending_max, t.pending_before);
      }
      double mean_tick = 0.0;
      for (double d : tick_s) mean_tick += d;
      report->AddMetric("stream.tick_s",
                        tick_s.empty() ? 0.0 : mean_tick / tick_s.size(), "s");
      report->AddMetric("stream.tick_s.early", MedianOf(early), "s");
      report->AddMetric("stream.tick_s.late", MedianOf(late), "s");
      report->AddMetric("stream.history_stays.early", MedianOf(early_hist),
                        "count");
      report->AddMetric("stream.history_stays.late", MedianOf(late_hist),
                        "count");
      report->AddMetric("stream.dirty_shards_per_tick",
                        published > 0.0 ? rebuilt / published : 0.0, "count");
      report->AddMetric("stream.in_tile_absorb_ratio",
                        rebuilt > 0.0 ? in_tile / rebuilt : 0.0, "ratio");
      report->AddMetric("stream.pending_stays_max",
                        static_cast<double>(pending_max), "count");
      report->AddMetric(
          "stream.history_stays",
          static_cast<double>(ingestor->accumulator().total_stays()), "count");
    }
  }

  // Output check: close every window, force a checkpoint, and hold its
  // diagram to the batch build over bootstrap + batch-detected stays.
  ingestor->FlushAll();
  stream::RebuildTickReport checkpoint =
      ingestor->PublishTick(/*force_checkpoint=*/true);
  if (options.trace) {
    obs::SetEnabled(false);
    SpanBreakdown spans = AnalyzeSpans(obs::Tracer::Get().Snapshot(), "");
    AddServeLayerMetrics(annotate, spans, report);
    report->AddMetric("serve.publish_shard_s",
                      spans.Total("serve/publish_shard"), "s");
    report->AddMetric("serve.publish_all_s", spans.Total("serve/publish_all"),
                      "s");
  }
  if (!checkpoint.status.ok() || !checkpoint.checkpoint) {
    report->FailCheck("forced checkpoint failed: " +
                      checkpoint.status.ToString());
  } else {
    // Bootstrap evidence, then each user's batch stays over the prefix
    // of the trace that was streamed, in user order: the canonical order
    // the stream's checkpoint builds from.
    std::vector<StayPoint> oracle_stays = host->dataset().stays;
    for (uint32_t u = 0; u < fleet.size(); ++u) {
      Trajectory prefix = fleet[u];
      prefix.points.resize(host->fold_log().Folded(u));
      std::vector<StayPoint> stays = DetectStayPoints(prefix);
      oracle_stays.insert(oracle_stays.end(), stays.begin(), stays.end());
    }
    CitySemanticDiagram oracle =
        CsdBuilder(host->snapshot_options().miner.csd)
            .Build(host->dataset().pois, oracle_stays);
    auto served = host->store().Acquire();
    auto want = DiagramBytes(oracle, options.dir + "/oracle.csdu");
    auto got = DiagramBytes(served->diagram(), options.dir + "/served.csdu");
    if (!want.ok() || !got.ok() || want.value() != got.value()) {
      report->FailCheck(
          "checkpoint diagram differs from the batch build over the same "
          "stays");
    }
    report->AddShape("checkpoint_units",
                     static_cast<double>(served->diagram().num_units()));
  }
  host.reset();

  if (!options.trace) {
    report->AddMetric("setup_s", setup_s, "s");
    report->AddMetric("peak_rss_mb", PeakRssMb(), "MiB");
  }
}

}  // namespace csd::perfbench
