#ifndef CSD_STREAM_DELTA_ACCUMULATOR_H_
#define CSD_STREAM_DELTA_ACCUMULATOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "shard/shard_plan.h"
#include "traj/trajectory.h"

namespace csd::stream {

/// What one publish tick drains: how many stay points it covers and
/// which spatial shards they dirtied. The canonical stay evidence itself
/// stays inside the accumulator (CanonicalStays) — a failed tick only
/// hands its dirty set back via Restore, and nothing is lost.
struct StreamDelta {
  size_t stays = 0;
  /// Ascending, unique. A stay dirties every shard whose halo contains
  /// it (the owning tile plus fringe neighbors whose tile-local builds
  /// see the stay through their halo slice).
  std::vector<size_t> dirty_shards;
};

/// Folds stay points emitted by the online detectors into the streaming
/// state an incremental rebuild consumes: the per-tile dirty set, the
/// stream watermark, and the canonical stay history. Popularity itself
/// (Equation 3) is not accumulated here: every tile rebuild recomputes
/// it exactly from the generation's stays (core/incremental_csd.h).
///
/// Canonical order — the keystone of the differential harness: stays are
/// kept per user in emission order and concatenated user-major
/// (ascending user id). Per-user emission order is a pure function of
/// that user's fix sequence, so the canonical vector is invariant under
/// any interleaving of users' feeds and under how many publish ticks the
/// stream was cut into. A checkpoint rebuild over bootstrap + canonical
/// stays is therefore byte-comparable to a from-scratch batch build over
/// the same per-user traces.
///
/// Thread-safe: ingest handlers on several event loops fold
/// concurrently; Drain/Restore run on the publish tick.
class DeltaAccumulator {
 public:
  /// `plan` must outlive the accumulator.
  explicit DeltaAccumulator(const shard::ShardPlan* plan);

  /// Folds one emitted stay: appends it to `user_id`'s history and marks
  /// the shards whose halos contain it dirty.
  void Fold(uint32_t user_id, const StayPoint& stay);

  /// Hands the pending tick work (count + dirty set) to a publish tick
  /// and resets it. The stay history is untouched.
  StreamDelta Drain();

  /// Returns a failed tick's delta: its dirty shards are re-marked and
  /// its stay count re-pended, so the next tick rebuilds them — the
  /// no-lost-deltas contract the chaos tests hold.
  void Restore(const StreamDelta& delta);

  /// All folded stays, user-major / emission-minor (see class comment).
  std::vector<StayPoint> CanonicalStays() const;

  /// Newest stay time ever folded (0 before the first fold) — the decay
  /// instant a generation built from CanonicalStays should pin.
  Timestamp watermark() const;

  /// Stays folded since the last successful Drain.
  size_t pending_stays() const;
  /// All stays folded since construction.
  size_t total_stays() const;

 private:
  /// Pushes the pending-stays and dirty-shards gauges (callers hold
  /// mutex_). The accumulator owns these gauges outright — every
  /// transition (fold, drain, restore) republishes them, so a forced
  /// checkpoint's drain provably resets both to zero (the CI stream-smoke
  /// job asserts the values, not just the series' presence).
  void PublishGauges() const;

  const shard::ShardPlan* plan_;

  mutable std::mutex mutex_;
  /// Ordered by user id so canonical concatenation is a plain walk.
  std::map<uint32_t, std::vector<StayPoint>> stays_by_user_;
  std::vector<bool> dirty_;
  size_t dirty_count_ = 0;
  size_t pending_stays_ = 0;
  size_t total_stays_ = 0;
  Timestamp watermark_ = 0;
};

}  // namespace csd::stream

#endif  // CSD_STREAM_DELTA_ACCUMULATOR_H_
