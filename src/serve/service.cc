#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace csd::serve {

namespace {

obs::Counter& AnnotateRequestsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_annotate_requests_total", "Admitted annotation requests");
  return counter;
}

obs::Counter& QueryRequestsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_query_requests_total", "Admitted pattern queries");
  return counter;
}

obs::Counter& RebuildsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_rebuilds_total", "Completed snapshot rebuilds");
  return counter;
}

obs::Counter& BatchesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_batches_total", "Annotation batches dispatched");
  return counter;
}

obs::Histogram& BatchSizeHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Get().GetHistogram(
      "csd_serve_batch_size", "Coalesced requests per annotation batch",
      {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return hist;
}

obs::Histogram& AnnotateLatencyHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Get().GetHistogram(
      "csd_serve_annotate_latency_seconds",
      "Enqueue-to-completion latency of annotation requests",
      {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
       0.25, 0.5, 1.0});
  return hist;
}

obs::Histogram& QueryLatencyHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Get().GetHistogram(
      "csd_serve_query_latency_seconds",
      "Latency of synchronous pattern-by-unit lookups",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1});
  return hist;
}

obs::Counter& DeadlineExceededCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_deadline_exceeded_total",
      "Annotation requests completed with kDeadlineExceeded");
  return counter;
}

obs::Counter& RebuildFailuresCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_rebuild_failures_total",
      "Rebuilds that failed and left the previous snapshot serving");
  return counter;
}

/// Completes a request without executing it: the stays come back
/// unannotated with `status` saying why (CompleteRequest frees the
/// admission slot before delivering).
void FailRequest(AnnotateRequest& request, Status status) {
  AnnotateResult result;
  result.status = std::move(status);
  result.stays = std::move(request.stays);
  result.units.assign(result.stays.size(), kNoUnit);
  CompleteRequest(request, std::move(result));
}

}  // namespace

ServeService::ServeService(ShardedSnapshotStore* store, shard::ShardPlan plan,
                           ServeOptions options)
    : store_(store),
      plan_(std::move(plan)),
      options_(options),
      admission_(options.limits) {
  CSD_CHECK_MSG(store_->num_shards() == plan_.num_shards(),
                "store lanes and shard plan disagree");
  // One global lane + one rebuild lane per shard: a tile rebuild on lane
  // 1+s can run while another shard's lane (and the batch pool) keep
  // serving.
  const size_t num_lanes = 1 + plan_.num_shards();
  rebuild_lanes_.reserve(num_lanes);
  for (size_t i = 0; i < num_lanes; ++i) {
    auto lane = std::make_unique<RebuildLane>();
    RebuildLane* raw = lane.get();
    lane->thread = std::thread([this, raw] { RebuildMain(raw); });
    rebuild_lanes_.push_back(std::move(lane));
  }
  batcher_ = std::make_unique<RequestBatcher>(
      options_.batch,
      [this](std::vector<AnnotateRequest> batch) {
        ExecuteBatch(std::move(batch));
      },
      options_.start_paused);
}

ServeService::~ServeService() { Shutdown(); }

Result<std::future<AnnotateResult>> ServeService::Submit(
    std::vector<StayPoint> stays,
    std::chrono::steady_clock::time_point deadline) {
  // The future-returning API is the callback API with a promise behind
  // the callback: once admitted, the future resolves either way.
  auto promise = std::make_shared<std::promise<AnnotateResult>>();
  std::future<AnnotateResult> future = promise->get_future();
  CSD_RETURN_NOT_OK(AnnotateStayPointsAsync(
      std::move(stays), deadline, [promise](AnnotateResult result) {
        promise->set_value(std::move(result));
      }));
  return future;
}

Status ServeService::AnnotateStayPointsAsync(
    std::vector<StayPoint> stays,
    std::chrono::steady_clock::time_point deadline,
    std::function<void(AnnotateResult)> on_complete) {
  if (store_->current_version() == 0) {
    return Status::FailedPrecondition(
        "no snapshot published yet; trigger a rebuild first");
  }
  auto now = std::chrono::steady_clock::now();
  if (deadline != kNoDeadline && now >= deadline) {
    // Already expired: fail fast without consuming an admission slot.
    DeadlineExceededCounter().Increment();
    return Status::DeadlineExceeded("annotate: deadline expired on arrival");
  }
  AdmissionTicket ticket(&admission_, RequestClass::kAnnotate);
  if (!ticket.ok()) return ticket.status();
  AnnotateRequestsCounter().Increment();

  AnnotateRequest request;
  request.stays = std::move(stays);
  request.enqueue_time = now;
  request.deadline = deadline;
  request.ticket = std::move(ticket);
  request.on_complete = std::move(on_complete);
  // Once admitted the callback *will* run exactly once — a drain race
  // completes the request with kUnavailable through the same channel.
  batcher_->Enqueue(std::move(request));
  return Status::OK();
}

Result<std::future<AnnotateResult>> ServeService::AnnotateStayPoints(
    std::vector<StayPoint> stays,
    std::chrono::steady_clock::time_point deadline) {
  return Submit(std::move(stays), deadline);
}

Result<std::future<AnnotateResult>> ServeService::AnnotateJourney(
    const TaxiJourney& journey,
    std::chrono::steady_clock::time_point deadline) {
  std::vector<StayPoint> stays;
  stays.reserve(2);
  stays.emplace_back(journey.pickup.position, journey.pickup.time);
  stays.emplace_back(journey.dropoff.position, journey.dropoff.time);
  return Submit(std::move(stays), deadline);
}

Result<PatternQueryResult> ServeService::QueryPatternsByUnit(UnitId unit) {
  if (store_->current_version() == 0) {
    return Status::FailedPrecondition(
        "no snapshot published yet; trigger a rebuild first");
  }
  // RAII ticket: the slot frees on every exit path, including exceptions —
  // a thrown Acquire can no longer leak the query budget.
  AdmissionTicket ticket(&admission_, RequestClass::kQuery);
  if (!ticket.ok()) return ticket.status();
  QueryRequestsCounter().Increment();

  Stopwatch watch;
  PatternQueryResult result;
  {
    CSD_TRACE_SPAN("serve/query_unit");
    std::shared_ptr<const CsdSnapshot> snapshot = store_->Acquire();
    result.snapshot_version = snapshot->version();
    result.unit = unit;
    result.pattern_ids = snapshot->PatternsForUnit(unit);
    result.snapshot = std::move(snapshot);  // pins pattern_ids
  }
  QueryLatencyHistogram().Observe(watch.ElapsedSeconds());
  return result;
}

Result<std::future<RebuildResult>> ServeService::EnqueueRebuild(
    RebuildJob job) {
  if (job.data == nullptr && store_->current_version() == 0) {
    return Status::FailedPrecondition(
        "nothing to rebuild: no dataset given and no snapshot published");
  }
  AdmissionTicket ticket(&admission_, RequestClass::kRebuild);
  if (!ticket.ok()) return ticket.status();
  job.ticket = std::move(ticket);

  std::future<RebuildResult> future;
  if (!job.on_complete) future = job.promise.get_future();
  RebuildLane& lane = *rebuild_lanes_[job.shard == kGlobalLane
                                          ? 0
                                          : 1 + static_cast<size_t>(job.shard)];
  {
    std::lock_guard<std::mutex> lock(lane.mutex);
    lane.queue.push_back(std::move(job));
  }
  lane.cv.notify_all();
  return future;
}

Result<std::future<RebuildResult>> ServeService::TriggerRebuild(
    std::shared_ptr<const ServeDataset> data) {
  RebuildJob job;
  job.data = std::move(data);
  return EnqueueRebuild(std::move(job));
}

Result<std::future<RebuildResult>> ServeService::TriggerShardRebuild(
    size_t shard, std::shared_ptr<const ServeDataset> data) {
  if (shard >= plan_.num_shards()) {
    return Status::InvalidArgument("shard index out of range");
  }
  RebuildJob job;
  job.shard = static_cast<int64_t>(shard);
  job.data = std::move(data);
  return EnqueueRebuild(std::move(job));
}

Status ServeService::TriggerRebuildAsync(
    std::function<void(RebuildResult)> on_complete,
    std::shared_ptr<const ServeDataset> data) {
  RebuildJob job;
  job.data = std::move(data);
  job.on_complete = std::move(on_complete);
  CSD_ASSIGN_OR_RETURN(std::future<RebuildResult> unused,
                       EnqueueRebuild(std::move(job)));
  (void)unused;
  return Status::OK();
}

void ServeService::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shut_down_) return;
  shut_down_ = true;

  admission_.Close();       // new requests bounce with kUnavailable...
  batcher_->Drain();        // ...while everything admitted completes.
  for (std::unique_ptr<RebuildLane>& lane : rebuild_lanes_) {
    {
      std::lock_guard<std::mutex> lock(lane->mutex);
      lane->stop = true;
    }
    lane->cv.notify_all();
  }
  for (std::unique_ptr<RebuildLane>& lane : rebuild_lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
}

void ServeService::SetPausedForTest(bool paused) {
  batcher_->SetPaused(paused);
}

void ServeService::ExecuteBatch(std::vector<AnnotateRequest> batch) {
  CSD_TRACE_SPAN("serve/annotate_batch");
  Status injected = CSD_FAILPOINT_EVAL("serve/execute_batch");
  if (!injected.ok()) {
    for (AnnotateRequest& request : batch) FailRequest(request, injected);
    return;
  }
  // A deadline that expired while the request waited in the queue turns
  // into kDeadlineExceeded instead of a late execution; the common
  // deadline-free batch skips the scan (and the extra clock read).
  bool any_deadline = false;
  for (const AnnotateRequest& request : batch) {
    if (request.deadline != kNoDeadline) {
      any_deadline = true;
      break;
    }
  }
  if (any_deadline) {
    auto arrival = std::chrono::steady_clock::now();
    std::vector<AnnotateRequest> live;
    live.reserve(batch.size());
    for (AnnotateRequest& request : batch) {
      if (request.deadline != kNoDeadline && arrival >= request.deadline) {
        DeadlineExceededCounter().Increment();
        FailRequest(request, Status::DeadlineExceeded(
                                 "annotate: deadline expired in queue"));
      } else {
        live.push_back(std::move(request));
      }
    }
    batch = std::move(live);
    if (batch.empty()) return;
  }

  CSD_TRACE_SPAN("serve/annotate_batch_sharded");
  const size_t num_shards = plan_.num_shards();

  // Each lane's generation is acquired at most once per batch, lazily:
  // a batch that never touches shard s doesn't pin (or wait on) it.
  std::vector<std::shared_ptr<const CsdSnapshot>> lane_snaps(num_shards);
  auto lane_snapshot = [&](size_t s) -> const CsdSnapshot* {
    if (lane_snaps[s] == nullptr) {
      lane_snaps[s] = store_->AcquireShard(s);
      // Lanes are seeded by the bootstrap PublishAll (admission requires
      // it), but a still-empty lane degrades to the global generation.
      if (lane_snaps[s] == nullptr) lane_snaps[s] = store_->Acquire();
    }
    return lane_snaps[s].get();
  };

  std::vector<AnnotateResult> results(batch.size());
  size_t total_stays = 0;
  for (const AnnotateRequest& request : batch) {
    total_stays += request.stays.size();
  }

  // Geo-routing: every stay is owned by exactly one tile
  // (plan_.ShardOf), and a request whose stays straddle tiles simply
  // fans out — each stay votes against its owning lane's snapshot, and
  // all slots write fixed output positions, so results come back in
  // request order no matter how the batch was split. Slots sort by
  // (shard, cell key): shard-major keeps each lane's annotator (and its
  // halo slice of the grid) hot, cell order keeps neighbors — which vote
  // over overlapping candidate sets — adjacent. The sort only changes
  // execution order, and the voting kernel is a strict per-stay argmax,
  // so results are byte-identical to unbatched annotation at any thread
  // count.
  struct Slot {
    uint32_t request;
    uint32_t index;
    uint32_t shard;
    uint64_t cell_key;
  };
  constexpr uint64_t kNoVersion = ~0ull;
  std::vector<Slot> slots;
  slots.reserve(total_stays);
  for (size_t r = 0; r < batch.size(); ++r) {
    results[r].snapshot_version = kNoVersion;
    results[r].stays = std::move(batch[r].stays);
    results[r].units.assign(results[r].stays.size(), kNoUnit);
    for (size_t i = 0; i < results[r].stays.size(); ++i) {
      const Vec2& position = results[r].stays[i].position;
      size_t shard = plan_.ShardOf(position);
      const CsdSnapshot* lane = lane_snapshot(shard);
      // The request's version is the oldest generation it consulted —
      // the freshness floor a straddling request can rely on.
      results[r].snapshot_version =
          std::min(results[r].snapshot_version, lane->version());
      slots.push_back({static_cast<uint32_t>(r), static_cast<uint32_t>(i),
                       static_cast<uint32_t>(shard),
                       lane->data().pois.SpatialKeyOf(position)});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.shard != b.shard ? a.shard < b.shard : a.cell_key < b.cell_key;
  });

  // Resolve each consulted lane's annotator once (the SIMD/SoA voting
  // kernel, byte-identical to the scalar recognizer() oracle; see
  // CsdSnapshot::annotator_for_shard for which edition a lane uses).
  std::vector<const BatchCsdAnnotator*> annotators(num_shards, nullptr);
  for (size_t s = 0; s < num_shards; ++s) {
    if (lane_snaps[s] != nullptr) {
      annotators[s] = &lane_snaps[s]->annotator_for_shard(s);
    }
  }

  ParallelFor(
      slots.size(),
      [&](size_t k) {
        const Slot& slot = slots[k];
        StayPoint& stay = results[slot.request].stays[slot.index];
        UnitId unit = kNoUnit;
        stay.semantic = annotators[slot.shard]->Annotate(stay.position, &unit);
        results[slot.request].units[slot.index] = unit;
      },
      {.grain = 32});

  auto now = std::chrono::steady_clock::now();
  uint64_t global_version = store_->current_version();
  for (size_t r = 0; r < batch.size(); ++r) {
    // A stay-less request consulted no lane; report the global version.
    if (results[r].snapshot_version == kNoVersion) {
      results[r].snapshot_version = global_version;
    }
    AnnotateLatencyHistogram().Observe(
        std::chrono::duration<double>(now - batch[r].enqueue_time).count());
    CompleteRequest(batch[r], std::move(results[r]));
  }
  BatchSizeHistogram().Observe(static_cast<double>(batch.size()));
  BatchesCounter().Increment();
}

void ServeService::RebuildMain(RebuildLane* lane) {
  std::unique_lock<std::mutex> lock(lane->mutex);
  for (;;) {
    lane->cv.wait(lock,
                  [lane] { return lane->stop || !lane->queue.empty(); });
    if (lane->queue.empty()) return;  // stopped and drained

    RebuildJob job = std::move(lane->queue.front());
    lane->queue.pop_front();
    lock.unlock();
    RunRebuildJob(lane, std::move(job));
    lock.lock();
  }
}

void ServeService::RunRebuildJob(RebuildLane* lane, RebuildJob job) {
  CSD_TRACE_SPAN("serve/rebuild");
  Stopwatch watch;
  RebuildResult result;
  // The failpoint sits on EVERY lane's path — the isolation test arms a
  // sleep here for one shard and asserts the others keep annotating.
  Status status = CSD_FAILPOINT_EVAL("serve/rebuild");
  if (status.ok()) {
    try {
      // EnqueueRebuild guarantees a published snapshot exists when no
      // dataset was given, and publishes never retract.
      std::shared_ptr<const ServeDataset> data =
          job.data != nullptr ? std::move(job.data)
                              : store_->Acquire()->shared_data();
      std::shared_ptr<CsdSnapshot> snapshot;
      if (job.shard != kGlobalLane) {
        // Tile-local rebuild: cut the shard's halo slice (~1/K of the
        // city) and absorb it into the lane's in-tile engine, which
        // re-stages only what the delta since its last generation
        // touched, then wrap the serving shell around its diagram. While
        // the city database is the one the lane last cut from, the cut
        // reuses the lane's tile database and filters only the evidence.
        size_t shard = static_cast<size_t>(job.shard);
        std::shared_ptr<const ServeDataset> tile;
        {
          CSD_TRACE_SPAN("serve/tile_cut");
          if (lane->cut_city_pois != data->poi_db) {
            lane->cut_tile_pois = nullptr;
            lane->cut_city_pois = data->poi_db;
          }
          tile = MakeShardDataset(*data, plan_, shard, lane->cut_tile_pois);
          lane->cut_tile_pois = tile->poi_db;
        }
        if (lane->engine == nullptr) {
          IncrementalTileCsd::Options engine_options;
          engine_options.build = options_.snapshot.miner.csd;
          lane->engine = std::make_unique<IncrementalTileCsd>(engine_options);
        }
        IncrementalTileCsd::TickStats tick;
        Stopwatch apply_watch;
        CitySemanticDiagram diagram = [&] {
          try {
            return lane->engine->Apply(tile->pois, tile->stays,
                                       tile->decay_as_of, &tick);
          } catch (...) {
            // A half-applied tick leaves the engine's caches unspecified;
            // drop them so the next attempt starts from a full build.
            lane->engine.reset();
            throw;
          }
        }();
        result.apply_seconds = apply_watch.ElapsedSeconds();
        result.in_tile = tick.incremental;
        snapshot = std::make_shared<CsdSnapshot>(tile, options_.snapshot,
                                                 std::move(diagram));
        result.version = store_->PublishShard(shard, snapshot);
      } else {
        // Full rebuild: a plan-mode snapshot (tiled diagram build and
        // per-shard annotators; the monolithic pass at K=1) published to
        // every lane.
        snapshot = std::make_shared<CsdSnapshot>(std::move(data),
                                                 options_.snapshot, plan_);
        result.version = store_->PublishAll(snapshot);
      }
      result.num_units = snapshot->diagram().units().size();
      result.num_patterns = snapshot->patterns().size();
      RebuildsCounter().Increment();
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("rebuild failed: ") + e.what());
    }
  }
  if (!status.ok()) {
    // Graceful degradation: nothing was published, so the last good
    // snapshot keeps serving; the error reaches the caller through
    // the rebuild future instead of taking the service down.
    RebuildFailuresCounter().Increment();
    result.status = std::move(status);
  }
  result.seconds = watch.ElapsedSeconds();
  job.ticket.Release();
  if (job.on_complete) {
    job.on_complete(std::move(result));
  } else {
    job.promise.set_value(std::move(result));
  }
}

}  // namespace csd::serve
