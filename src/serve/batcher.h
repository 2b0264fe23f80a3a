#ifndef CSD_SERVE_BATCHER_H_
#define CSD_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/request.h"

namespace csd::serve {

/// When a batch closes: at `max_batch` coalesced requests, or `max_delay`
/// after the first request of the batch arrived, whichever comes first —
/// and never later than the earliest per-request deadline in the queue
/// (holding a request that is about to expire to wait for company would
/// spend its whole budget on the window). max_delay is the latency tax a
/// lone request pays to give neighbors a chance to share its snapshot
/// acquisition and grid-index locality.
struct BatchPolicy {
  size_t max_batch = 64;
  std::chrono::microseconds max_delay{1000};
};

/// Coalesces annotation requests into batches and hands each batch to the
/// execute callback on a dedicated dispatcher thread (which fans the
/// batch out on the work-stealing pool). The queue itself is unbounded —
/// the AdmissionController in front of Enqueue is what bounds it — so
/// Enqueue never blocks.
///
/// The dispatcher is woken only when a request can change what it does:
/// the queue going from empty to non-empty (opens a window), the queue
/// reaching `max_batch` (closes it), or a request whose deadline falls
/// before the open window's close (pulls the close earlier). Every other
/// Enqueue just appends — a 25-request batch costs one wake, not 25.
/// Notifies happen after the mutex is released, so a woken dispatcher
/// never blocks straight away on the lock the enqueuer still holds.
///
/// Drain() delivers every queued request before the dispatcher exits:
/// shutdown completes admitted work, it never drops it. A request that
/// races Enqueue against Drain and loses is *rejected*, not stranded: it
/// completes immediately with kUnavailable and its admission slot frees,
/// so the caller never hangs.
class RequestBatcher {
 public:
  using ExecuteFn = std::function<void(std::vector<AnnotateRequest>)>;

  /// `execute` runs on the dispatcher thread; it owns the batch and must
  /// complete every request (CompleteRequest). `paused` starts the dispatcher
  /// suspended (test hook for deterministic overload).
  RequestBatcher(BatchPolicy policy, ExecuteFn execute, bool paused = false);

  /// Drains and joins.
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Queues `request` for the next batch. Returns false when the batcher
  /// is draining (or already drained): the request was NOT queued — it
  /// has been completed with kUnavailable and its admission ticket
  /// released, so the caller hears back either way.
  bool Enqueue(AnnotateRequest request);

  /// Suspends/resumes batch dispatch. While paused, requests queue up
  /// (until admission control rejects); on resume they drain in order. A
  /// batch window that was open when the pause landed is preserved:
  /// already-queued requests resume waiting out their *original* window,
  /// they are not taxed a fresh max_delay.
  void SetPaused(bool paused);

  /// Stops dispatching new batches after the queue empties and joins the
  /// dispatcher. Idempotent; implies SetPaused(false).
  void Drain();

  size_t Depth() const;

 private:
  void DispatcherMain();

  BatchPolicy policy_;
  ExecuteFn execute_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<AnnotateRequest> queue_;
  bool paused_ = false;
  bool draining_ = false;
  /// The open batch window, preserved across pause/unpause. Guarded by
  /// mutex_; only meaningful while window_open_.
  bool window_open_ = false;
  std::chrono::steady_clock::time_point window_deadline_{};
  /// Earliest explicit deadline among queued requests (kNoDeadline when
  /// none): lowered on push, recomputed once per taken batch.
  std::chrono::steady_clock::time_point earliest_deadline_ = kNoDeadline;
  /// Queued requests carrying an explicit deadline; lets the per-batch
  /// recompute skip its scan on the (common) deadline-free path.
  size_t deadlined_in_queue_ = 0;

  std::thread dispatcher_;
};

}  // namespace csd::serve

#endif  // CSD_SERVE_BATCHER_H_
