#ifndef CSD_SERVE_SERVICE_H_
#define CSD_SERVE_SERVICE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/incremental_csd.h"
#include "serve/admission.h"
#include "serve/batcher.h"
#include "serve/request.h"
#include "serve/snapshot_store.h"
#include "shard/shard_plan.h"
#include "traj/journey.h"
#include "util/status.h"

namespace csd::serve {

/// Everything configurable about one serving instance.
struct ServeOptions {
  BatchPolicy batch;
  AdmissionLimits limits;
  /// Applied to snapshots built by TriggerRebuild.
  SnapshotOptions snapshot;
  /// Start with batch dispatch suspended (deterministic-overload tests).
  bool start_paused = false;
};

/// The online request path over a ShardedSnapshotStore: admission control
/// at the front door, request coalescing in the middle, the CSD voting
/// kernel at the bottom, and background rebuild lanes that publish new
/// generations without stalling readers.
///
///   client ──Admit──> RequestBatcher ──batch──> geo-route ──> pool
///                │                                              │
///                ├─global lane──> plan-mode CsdSnapshot   on_complete
///                │                  ──> PublishAll (RCU)
///                └─shard lane s──> tile cut ──> lane s's IncrementalTileCsd
///                                   ──> adopted CsdSnapshot ──> PublishShard
///
/// Annotation batches are geo-routed by the shard plan: each stay is
/// annotated against the snapshot of the lane owning its position, a
/// request straddling tiles fans out to every lane it touches, and results
/// land in request order either way. A 1×1 plan over a one-shard store is
/// the monolithic deployment — the same path with one lane.
///
/// Endpoints return Status::Unavailable immediately under overload
/// (bounded queues, no unbounded buffering); everything admitted is
/// guaranteed to complete, including across Shutdown().
class ServeService {
 public:
  /// `store` must outlive the service and have plan.num_shards() lanes.
  /// Annotation and queries require a published generation; TriggerRebuild
  /// with an explicit dataset works on an empty store (bootstrap). Full
  /// rebuilds publish plan-mode snapshots to every lane (PublishAll);
  /// TriggerShardRebuild rebuilds one tile through that shard's own
  /// rebuild thread and in-tile engine, so a rebuilding tile never stalls
  /// annotation routed to any other shard. Pattern queries run against
  /// the global lane.
  ServeService(ShardedSnapshotStore* store, shard::ShardPlan plan,
               ServeOptions options = {});

  /// Shuts down (drains) if the caller did not.
  ~ServeService();

  ServeService(const ServeService&) = delete;
  ServeService& operator=(const ServeService&) = delete;

  /// Queues `stays` for batched annotation. The future resolves to the
  /// stays with semantics + winning units filled in, annotated against
  /// one consistent snapshot. With an explicit `deadline`, the batcher
  /// never holds the request past it and an expired request completes
  /// with kDeadlineExceeded instead of executing — the future always
  /// resolves either way.
  Result<std::future<AnnotateResult>> AnnotateStayPoints(
      std::vector<StayPoint> stays,
      std::chrono::steady_clock::time_point deadline = kNoDeadline);

  /// Queues the journey's stay points (pick-up, drop-off) as one request.
  Result<std::future<AnnotateResult>> AnnotateJourney(
      const TaxiJourney& journey,
      std::chrono::steady_clock::time_point deadline = kNoDeadline);

  /// Callback edition of AnnotateStayPoints for event-driven callers
  /// (the epoll network server must not park a thread per request). On
  /// OK, `on_complete` runs exactly once — on the batch-execution thread
  /// normally, on the submitting/draining thread for rejections that
  /// race shutdown — and must not block. A non-OK return means the
  /// request was never admitted and the callback will never run (the
  /// caller reports the error itself).
  Status AnnotateStayPointsAsync(
      std::vector<StayPoint> stays,
      std::chrono::steady_clock::time_point deadline,
      std::function<void(AnnotateResult)> on_complete);

  /// Fine-grained patterns anchored at `unit` in the current snapshot.
  /// Synchronous: a bounded number of concurrent lookups run directly on
  /// the caller's thread (admission class kQuery).
  Result<PatternQueryResult> QueryPatternsByUnit(UnitId unit);

  /// Queues a full background rebuild + publish. `data` is the new
  /// dataset generation; nullptr re-runs on the current snapshot's
  /// dataset. At most limits.rebuild rebuilds are in flight; extra
  /// triggers get kUnavailable. A rebuild that fails (injected fault,
  /// build exception) degrades gracefully: the store is left untouched —
  /// the last good snapshot keeps serving — and the error is reported
  /// through the future's RebuildResult::status.
  Result<std::future<RebuildResult>> TriggerRebuild(
      std::shared_ptr<const ServeDataset> data = nullptr);

  /// Queues a rebuild of shard `shard`'s tile on that shard's dedicated
  /// rebuild lane. The tile dataset is cut from `data` (nullptr re-cuts
  /// from the global lane's current dataset) by MakeShardDataset, which
  /// reuses the lane's tile POI database while `data` shares the city
  /// database (ServeDataset::poi_db) the lane last cut from. The cut is
  /// absorbed by the lane's IncrementalTileCsd (core/incremental_csd.h):
  /// the first build, a changed POI set or churn past the threshold
  /// re-stages the whole tile; a streamed delta re-runs only its dirty
  /// components. With decay off the diagram equals a from-scratch build
  /// of the tile byte for byte (docs/streaming.md bounds the decay-on
  /// case). The snapshot is published to that shard's lane alone —
  /// other shards and the global lane are untouched, and annotation
  /// routed to them is never blocked. A build that throws drops the
  /// lane's engine (the next rebuild starts from a full build) and keeps
  /// the last good snapshot serving.
  Result<std::future<RebuildResult>> TriggerShardRebuild(
      size_t shard, std::shared_ptr<const ServeDataset> data = nullptr);

  /// The options every rebuild builds with (the streaming layer pins a
  /// generation's decay instant only when these switch decay on).
  const SnapshotOptions& snapshot_options() const {
    return options_.snapshot;
  }

  /// Callback edition of TriggerRebuild (same contract as
  /// AnnotateStayPointsAsync: OK means `on_complete` runs exactly once,
  /// on the rebuild thread; an error return means it never will).
  Status TriggerRebuildAsync(
      std::function<void(RebuildResult)> on_complete,
      std::shared_ptr<const ServeDataset> data = nullptr);

  /// Graceful drain: closes admission (new requests get kUnavailable),
  /// completes every admitted request and rebuild, joins the worker
  /// threads. Idempotent; called by the destructor.
  void Shutdown();

  /// Suspends/resumes batch dispatch (tests saturate the queue
  /// deterministically while paused).
  void SetPausedForTest(bool paused);

  const AdmissionController& admission() const { return admission_; }
  ShardedSnapshotStore& store() { return *store_; }
  const ShardedSnapshotStore& store() const { return *store_; }
  size_t QueueDepth() const { return batcher_->Depth(); }

 private:
  struct RebuildJob {
    /// Target shard lane, or kGlobalLane for a full rebuild + publish.
    int64_t shard = kGlobalLane;
    std::shared_ptr<const ServeDataset> data;
    AdmissionTicket ticket;
    std::promise<RebuildResult> promise;
    /// Completion channel when set (else the promise).
    std::function<void(RebuildResult)> on_complete;
  };
  static constexpr int64_t kGlobalLane = -1;

  /// One independent rebuild worker: lane 0 serves full rebuilds; lanes
  /// 1..K serve single-shard rebuilds, one thread per shard, so a slow
  /// tile build never queues behind (or ahead of) another shard's.
  struct RebuildLane {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<RebuildJob> queue;
    bool stop = false;
    std::thread thread;
    /// Shard lanes: the tile's in-tile engine, created on the first
    /// rebuild. Only this lane's thread touches it (and the cut cache
    /// below), so it needs no lock.
    std::unique_ptr<IncrementalTileCsd> engine;
    /// Shard lanes: the tile POI database of the last cut and the city
    /// database it was cut from. Holding the city database (not just its
    /// address) means a freed-and-reused address can never pass for it,
    /// at the price of pinning that database until the lane's next cut;
    /// a generation over any other city database re-cuts the tile.
    std::shared_ptr<const PoiDatabase> cut_city_pois;
    std::shared_ptr<const PoiDatabase> cut_tile_pois;
  };

  /// AnnotateStayPointsAsync with a promise behind the callback.
  Result<std::future<AnnotateResult>> Submit(
      std::vector<StayPoint> stays,
      std::chrono::steady_clock::time_point deadline);
  void ExecuteBatch(std::vector<AnnotateRequest> batch);
  Result<std::future<RebuildResult>> EnqueueRebuild(RebuildJob job);
  void RebuildMain(RebuildLane* lane);
  void RunRebuildJob(RebuildLane* lane, RebuildJob job);

  ShardedSnapshotStore* store_;
  shard::ShardPlan plan_;
  ServeOptions options_;
  AdmissionController admission_;

  /// [0] = global; [1 + s] = shard s.
  std::vector<std::unique_ptr<RebuildLane>> rebuild_lanes_;

  std::mutex shutdown_mutex_;
  bool shut_down_ = false;

  // Last: its dispatcher calls ExecuteBatch, so every field it touches
  // must already be alive.
  std::unique_ptr<RequestBatcher> batcher_;
};

}  // namespace csd::serve

#endif  // CSD_SERVE_SERVICE_H_
