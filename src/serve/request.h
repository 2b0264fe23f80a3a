#ifndef CSD_SERVE_REQUEST_H_
#define CSD_SERVE_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/pattern.h"
#include "core/semantic_unit.h"
#include "serve/admission.h"
#include "traj/trajectory.h"
#include "util/status.h"

namespace csd::serve {

class CsdSnapshot;

/// "No deadline": requests default to unbounded patience, so deadline
/// handling is invisible unless a caller opts in.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// Outcome of one annotation request (single stay points or a whole
/// journey). On success (`status.ok()`): the input stay points with their
/// semantic properties filled in, the winning semantic unit per stay
/// (kNoUnit when nothing was in range), and the version of the snapshot
/// that served the request. On failure (deadline exceeded, batcher
/// draining, injected fault) `status` says why, the stays come back
/// unannotated, and `snapshot_version` is 0 — the request *always*
/// completes with an explicit verdict, never a hang.
struct AnnotateResult {
  Status status;
  uint64_t snapshot_version = 0;
  std::vector<StayPoint> stays;
  std::vector<UnitId> units;
};

/// One queued annotation request. `enqueue_time` feeds the latency
/// histogram; `deadline` is enforced by the batcher window and checked
/// again at execution; the ticket releases the admission slot wherever
/// the request's life ends. Completion has one channel, `on_complete`:
/// event-driven callers (the network server) pass a non-blocking
/// callback, and the future-returning API wraps its own promise in one.
/// The request *always* completes with an explicit verdict, delivered by
/// the batch that executes it or by whoever rejects it.
struct AnnotateRequest {
  std::vector<StayPoint> stays;
  std::chrono::steady_clock::time_point enqueue_time;
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  AdmissionTicket ticket;
  /// Runs exactly once, on whatever thread completes the request (batch
  /// executor, batcher drain, submit path); must be set and must not
  /// block.
  std::function<void(AnnotateResult)> on_complete;
};

/// The single completion path every terminal site uses: frees the
/// admission slot *first* (a caller woken by the result must see the
/// budget already returned), then delivers through `on_complete`.
inline void CompleteRequest(AnnotateRequest& request, AnnotateResult result) {
  request.ticket.Release();
  request.on_complete(std::move(result));
}

/// Result of a pattern lookup. `pattern_ids` points into the snapshot's
/// unit→pattern index; the shared_ptr pins that snapshot for as long as
/// the caller holds the result (RCU read-side critical section).
struct PatternQueryResult {
  uint64_t snapshot_version = 0;
  UnitId unit = kNoUnit;
  std::shared_ptr<const CsdSnapshot> snapshot;
  std::span<const uint32_t> pattern_ids;
};

/// Outcome of a background rebuild. On success (`status.ok()`): the
/// version the new snapshot was published under and its headline shape.
/// On failure the store was left untouched — the previous generation
/// keeps serving — and `status` carries the build error.
struct RebuildResult {
  Status status;
  uint64_t version = 0;
  size_t num_units = 0;
  size_t num_patterns = 0;
  double seconds = 0.0;
  /// Shard rebuilds only: whether the lane's in-tile engine absorbed the
  /// delta into its cached tile structure (false: it re-staged the whole
  /// tile — a first build, a changed POI set, or churn past the
  /// threshold), and the seconds its Apply took (the stage work alone,
  /// without the dataset cut or the snapshot shell).
  bool in_tile = false;
  double apply_seconds = 0.0;
};

}  // namespace csd::serve

#endif  // CSD_SERVE_REQUEST_H_
