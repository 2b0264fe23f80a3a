#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace csd::serve {

namespace {

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Get().GetGauge(
      "csd_serve_queue_depth", "Annotation requests waiting in the batcher");
  return gauge;
}

obs::Counter& WakeupsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_batcher_wakeups_total",
      "Batcher dispatcher returns from a condition wait");
  return counter;
}

}  // namespace

RequestBatcher::RequestBatcher(BatchPolicy policy, ExecuteFn execute,
                               bool paused)
    : policy_(policy), execute_(std::move(execute)), paused_(paused) {
  CSD_CHECK(policy_.max_batch >= 1);
  CSD_CHECK(execute_ != nullptr);
  dispatcher_ = std::thread([this] { DispatcherMain(); });
}

RequestBatcher::~RequestBatcher() { Drain(); }

bool RequestBatcher::Enqueue(AnnotateRequest request) {
  bool queued = false;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!draining_) {
      // Wake the dispatcher only when this request changes what it does:
      // an empty queue gains its first request (a window opens), the
      // queue reaches max_batch (the window closes), or the deadline
      // falls before the open window's close. Otherwise the dispatcher
      // is executing, paused, or waiting on a close this request leaves
      // unchanged, and a wake would only put it back to sleep.
      const auto deadline = request.deadline;
      wake = queue_.empty() || queue_.size() + 1 == policy_.max_batch ||
             (window_open_ &&
              deadline < std::min(window_deadline_, earliest_deadline_));
      if (deadline != kNoDeadline) {
        deadlined_in_queue_++;
        earliest_deadline_ = std::min(earliest_deadline_, deadline);
      }
      queue_.push_back(std::move(request));
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      queued = true;
    }
  }
  if (queued) {
    if (wake) cv_.notify_one();
    return true;
  }
  // Draining — the dispatcher may already have passed its last look at
  // the queue (or exited), so queueing here could strand the request and
  // hang the caller forever. Reject instead: complete it right here with
  // an explicit kUnavailable (CompleteRequest frees the admission slot
  // before delivering).
  AnnotateResult result;
  result.status =
      Status::Unavailable("annotate: batcher is draining (shutdown)");
  result.stays = std::move(request.stays);
  result.units.assign(result.stays.size(), kNoUnit);
  CompleteRequest(request, std::move(result));
  return false;
}

void RequestBatcher::SetPaused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = paused;
  }
  cv_.notify_all();
}

void RequestBatcher::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

size_t RequestBatcher::Depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void RequestBatcher::DispatcherMain() {
  auto ready = [this] {
    return (!queue_.empty() && !paused_) || (draining_ && queue_.empty());
  };
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    while (!ready()) {
      cv_.wait(lock);
      WakeupsCounter().Increment();
    }
    if (queue_.empty()) return;  // draining and nothing left

    // Batch window: the first request the dispatcher sees opens it; close
    // at max_batch coalesced requests or when the window deadline passes,
    // whichever first. The window deadline is max_delay after opening,
    // clamped to the earliest per-request deadline in the queue (a batch
    // must never outwait a request's remaining budget). A drain flushes
    // immediately — admitted requests must not wait out the window during
    // shutdown.
    if (!window_open_) {
      window_open_ = true;
      window_deadline_ = std::chrono::steady_clock::now() + policy_.max_delay;
    }
    while (queue_.size() < policy_.max_batch && !draining_ && !paused_) {
      auto close = std::min(window_deadline_, earliest_deadline_);
      std::cv_status status = cv_.wait_until(lock, close);
      WakeupsCounter().Increment();
      if (status == std::cv_status::timeout) break;
    }
    // Re-paused mid-window: hold the queue, but keep the open window —
    // when dispatch resumes, already-queued requests finish waiting out
    // their original window instead of being taxed a fresh max_delay.
    if (paused_ && !draining_) continue;

    window_open_ = false;
    size_t take = std::min(queue_.size(), policy_.max_batch);
    std::vector<AnnotateRequest> batch;
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      if (queue_.front().deadline != kNoDeadline) deadlined_in_queue_--;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    earliest_deadline_ = kNoDeadline;
    if (deadlined_in_queue_ > 0) {
      for (const AnnotateRequest& request : queue_) {
        earliest_deadline_ = std::min(earliest_deadline_, request.deadline);
      }
    }
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));

    lock.unlock();
    execute_(std::move(batch));
    lock.lock();
  }
}

}  // namespace csd::serve
