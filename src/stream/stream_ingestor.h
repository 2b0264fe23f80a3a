#ifndef CSD_STREAM_STREAM_INGESTOR_H_
#define CSD_STREAM_STREAM_INGESTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "serve/service.h"
#include "serve/snapshot_store.h"
#include "shard/shard_plan.h"
#include "stream/delta_accumulator.h"
#include "stream/incremental_rebuilder.h"
#include "stream/online_stay_point_detector.h"
#include "util/status.h"

namespace csd::stream {

/// Everything configurable about the streaming layer.
struct StreamOptions {
  OnlineDetectorOptions detector;
  /// Every Nth publish tick is a full-rebuild checkpoint (0 = never).
  size_t checkpoint_every = 0;
};

/// The streaming front door `csdctl serve --stream` wires behind the
/// INGEST_FIX frame: per-user online stay-point detectors feeding a
/// DeltaAccumulator, with an IncrementalRebuilder turning the pending
/// delta into published snapshots on publish ticks.
///
///   fixes ──IngestFixes──> OnlineStayPointDetector (per user)
///             │ emitted stays
///             └──> DeltaAccumulator (stay history + dirty tiles)
///   PublishTick ──> IncrementalRebuilder ──> dirty-shard rebuilds
///                                            / checkpoint PublishAll
///
/// IngestFixes is thread-safe (ingest frames arrive on every event
/// loop) and cheap — detection and folding only; rebuilds happen on the
/// publish tick, never on the ingest path. The `serve/ingest` failpoint
/// guards the whole fold: an injected fault rejects the batch before
/// any state changes, so a retried frame is never double-counted.
class StreamIngestor {
 public:
  /// `service` and `store` must outlive the ingestor; `bootstrap` is the
  /// dataset generation the served snapshots were built from.
  StreamIngestor(serve::ServeService* service,
                 serve::ShardedSnapshotStore* store, shard::ShardPlan plan,
                 std::shared_ptr<const serve::ServeDataset> bootstrap,
                 StreamOptions options = {});

  /// Folds one user's fixes (in arrival order) through their detector.
  /// Emitted stays land in the accumulator. Fails only on an injected
  /// `serve/ingest` fault — malformed fixes were already rejected at the
  /// frame parser, and late fixes are dropped with a metric, not an
  /// error.
  Status IngestFixes(uint32_t user_id, std::span<const GpsPoint> fixes);

  /// Closes one user's / every user's open window (end of trace).
  void FlushUser(uint32_t user_id);
  void FlushAll();

  /// One synchronous publish tick (see IncrementalRebuilder::Tick).
  RebuildTickReport PublishTick(bool force_checkpoint = false);

  size_t pending_stays() const { return accumulator_.pending_stays(); }
  uint64_t fixes_ingested() const;
  uint64_t stays_emitted() const;
  uint64_t late_dropped() const;
  size_t num_users() const;

  const DeltaAccumulator& accumulator() const { return accumulator_; }
  const shard::ShardPlan& plan() const { return plan_; }

 private:
  void FoldEmitted(uint32_t user_id, const std::vector<StayPoint>& stays);

  shard::ShardPlan plan_;
  std::shared_ptr<const serve::ServeDataset> bootstrap_;
  StreamOptions options_;
  DeltaAccumulator accumulator_;
  IncrementalRebuilder rebuilder_;

  mutable std::mutex mutex_;
  std::unordered_map<uint32_t, OnlineStayPointDetector> detectors_;
  uint64_t fixes_ingested_ = 0;
  uint64_t stays_emitted_ = 0;
  uint64_t late_dropped_ = 0;
};

}  // namespace csd::stream

#endif  // CSD_STREAM_STREAM_INGESTOR_H_
