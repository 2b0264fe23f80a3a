#include "util/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/parallel.h"

namespace csd {

namespace {

obs::Counter& PoolStealsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_pool_steals_total", "Successful work-steal operations");
  return counter;
}

obs::Counter& PoolTasksCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_pool_tasks_total", "Loop chunks executed by the thread pool");
  return counter;
}

obs::Counter& PoolLoopsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_pool_loops_total", "Parallel loops submitted to the thread pool");
  return counter;
}

obs::Gauge& PoolQueueDepthGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Get().GetGauge(
      "csd_pool_queue_depth", "Chunks enqueued by the most recent loop");
  return gauge;
}

/// Set while the current thread executes a chunk body; consulted by
/// ParallelFor to run nested loops inline.
thread_local bool tls_in_parallel_region = false;

struct RegionGuard {
  RegionGuard() : saved(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~RegionGuard() { tls_in_parallel_region = saved; }
  bool saved;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_workers) {
  // Touch the pool metrics now so their one-time registration (which
  // allocates) never lands inside an instrumented or alloc-counted region.
  PoolStealsCounter();
  PoolTasksCounter();
  PoolLoopsCounter();
  PoolQueueDepthGauge();
  queues_.reserve(kMaxWorkers);
  for (size_t i = 0; i < kMaxWorkers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  EnsureWorkers(num_workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    stop_ = true;
  }
  park_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Global() {
  // Intentionally leaked: workers park until process exit, and a static
  // destructor would race against other statics still issuing loops.
  static ThreadPool* pool =
      new ThreadPool(DefaultParallelism() > 0 ? DefaultParallelism() - 1 : 0);
  return *pool;
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

void ThreadPool::EnsureWorkers(size_t target) {
  target = std::min(target, kMaxWorkers);
  if (num_workers() >= target) return;
  std::lock_guard<std::mutex> lock(grow_mutex_);
  while (threads_.size() < target) {
    size_t id = threads_.size();
    threads_.emplace_back([this, id] { WorkerMain(id); });
    num_workers_.store(threads_.size(), std::memory_order_release);
  }
}

void ThreadPool::Signal(size_t wake) {
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    ++work_epoch_;
  }
  // Wake only as many parked workers as there are queued chunks to take:
  // a notify_all would rouse every idle worker for a 2-chunk loop, and
  // all but one would scan, find nothing and park again. Workers that
  // are awake (or mid-park, past their epoch read) find the chunks on
  // their next scan, and the submitter helps until its loop drains, so a
  // notify that lands on no waiter loses no work.
  for (size_t i = 0; i < wake; ++i) park_cv_.notify_one();
}

void ThreadPool::WorkerMain(size_t id) {
  for (;;) {
    Task task;
    if (TryGetTask(id, &task)) {
      Execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(park_mutex_);
    if (stop_) return;
    uint64_t seen = work_epoch_;
    lock.unlock();
    // Re-scan after recording the epoch: a submitter that pushed between
    // our failed scan and the wait below must have bumped the epoch.
    if (TryGetTask(id, &task)) {
      Execute(task);
      continue;
    }
    lock.lock();
    park_cv_.wait(lock, [&] { return stop_ || work_epoch_ != seen; });
    if (stop_) return;
  }
}

bool ThreadPool::TryGetTask(size_t own, Task* out) {
  size_t workers = num_workers();
  if (own < workers) {
    WorkerQueue& q = *queues_[own];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      *out = q.tasks.front();
      q.tasks.pop_front();
      return true;
    }
  }
  // Steal sweep, starting after our own slot so victims differ per thief.
  size_t start = own < workers ? own + 1 : 0;
  for (size_t i = 0; i < workers; ++i) {
    size_t victim = (start + i) % workers;
    if (victim == own) continue;
    if (StealHalf(own, victim, out)) return true;
  }
  return false;
}

bool ThreadPool::StealHalf(size_t own, size_t victim, Task* out) {
  WorkerQueue& vq = *queues_[victim];
  std::vector<Task> stolen;
  {
    std::lock_guard<std::mutex> lock(vq.mutex);
    size_t size = vq.tasks.size();
    if (size == 0) return false;
    // Take the back half (rounded up), leaving the front for the owner.
    size_t take = (size + 1) / 2;
    stolen.assign(vq.tasks.end() - static_cast<ptrdiff_t>(take),
                  vq.tasks.end());
    vq.tasks.erase(vq.tasks.end() - static_cast<ptrdiff_t>(take),
                   vq.tasks.end());
  }
  PoolStealsCounter().Increment();
  *out = stolen.front();
  if (stolen.size() > 1) {
    if (own < num_workers()) {
      WorkerQueue& oq = *queues_[own];
      std::lock_guard<std::mutex> lock(oq.mutex);
      oq.tasks.insert(oq.tasks.end(), stolen.begin() + 1, stolen.end());
    } else {
      // Non-worker helper (the submitting thread): it has no queue, so
      // return the surplus to the victim's front rather than hoarding it.
      std::lock_guard<std::mutex> lock(vq.mutex);
      vq.tasks.insert(vq.tasks.begin(), stolen.begin() + 1, stolen.end());
    }
  }
  return true;
}

void ThreadPool::Execute(const Task& task) {
  PoolTasksCounter().Increment();
  Loop* loop = task.loop;
  if (!loop->cancelled.load(std::memory_order_acquire)) {
    RegionGuard region;
    try {
      (*loop->body)(task.begin, task.end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(loop->mutex);
      if (!loop->error) loop->error = std::current_exception();
      loop->cancelled.store(true, std::memory_order_release);
    }
  }
  if (loop->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last chunk: signal completion under the mutex. The submitter's
    // predicate reads `complete` under the same mutex, so it cannot
    // destroy the loop state until this thread released the lock.
    std::lock_guard<std::mutex> lock(loop->mutex);
    loop->complete = true;
    loop->done.notify_all();
  }
}

void ThreadPool::ParallelRange(
    size_t n, size_t grain, size_t max_threads,
    const std::function<void(size_t, size_t)>& body) {
  CSD_DCHECK(grain >= 1);
  if (n == 0) return;
  size_t workers = num_workers();
  if (workers == 0 || max_threads <= 1) {
    RegionGuard region;
    body(0, n);
    return;
  }

  Loop loop;
  loop.body = &body;
  size_t num_chunks = (n + grain - 1) / grain;
  loop.pending.store(num_chunks, std::memory_order_relaxed);
  PoolLoopsCounter().Increment();
  PoolQueueDepthGauge().Set(static_cast<double>(num_chunks));

  // The submitting thread runs chunk 0 itself; only chunks 1.. are
  // queued, round-robin over the first max_threads - 1 worker queues.
  // Stealing rebalances from there.
  size_t fan = std::min(workers, max_threads - 1);
  size_t base = next_queue_.fetch_add(1, std::memory_order_relaxed);
  for (size_t c = 1; c < num_chunks; ++c) {
    size_t begin = c * grain;
    Task task{&loop, begin, std::min(begin + grain, n)};
    WorkerQueue& q = *queues_[(base + c % fan) % workers];
    std::lock_guard<std::mutex> lock(q.mutex);
    q.tasks.push_back(task);
  }
  if (num_chunks > 1) Signal(std::min(num_chunks - 1, fan));
  Execute(Task{&loop, 0, std::min(grain, n)});

  // Help until no runnable task is visible (we may execute chunks of
  // other concurrent loops; that only speeds them up).
  Task task;
  while (loop.pending.load(std::memory_order_acquire) > 0 &&
         TryGetTask(SIZE_MAX, &task)) {
    Execute(task);
  }

  std::unique_lock<std::mutex> lock(loop.mutex);
  loop.done.wait(lock, [&] { return loop.complete; });
  if (loop.error) std::rethrow_exception(loop.error);
}

}  // namespace csd
