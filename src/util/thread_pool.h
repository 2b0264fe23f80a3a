#ifndef CSD_UTIL_THREAD_POOL_H_
#define CSD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace csd {

/// Persistent work-stealing thread pool behind ParallelFor.
///
/// Design:
///  - Workers are started lazily and parked on a condition variable when
///    idle, so an unused pool costs nothing beyond its queue slots.
///  - Each worker owns a deque of tasks (index ranges of an active loop).
///    A worker pops from the front of its own deque; when empty it steals
///    the back *half* of a victim's deque, which balances coarse chunks
///    without a global queue bottleneck.
///  - Loops are blocking: the submitting thread queues chunks 1.., wakes
///    only as many parked workers as those chunks need, runs chunk 0
///    itself, then helps execute until the loop drains. The first
///    exception thrown by a chunk (chunk 0 included) cancels the
///    remaining chunks of that loop and is rethrown on the submitting
///    thread.
///  - Nested parallel loops never spawn new parallelism: any ParallelFor
///    issued from inside a running chunk executes inline on the calling
///    worker (see InParallelRegion()), so worker count — not
///    workers × workers — bounds concurrency.
///
/// The pool can grow (EnsureWorkers) but never shrinks; queue slots are
/// pre-allocated so growth never invalidates references held by running
/// workers.
class ThreadPool {
 public:
  /// Hard ceiling on workers per pool (queue slots are pre-allocated).
  static constexpr size_t kMaxWorkers = 64;

  /// Starts `num_workers` workers (clamped to kMaxWorkers). Zero workers
  /// is valid: loops then run entirely on the submitting thread.
  explicit ThreadPool(size_t num_workers);

  /// Joins all workers. Outstanding loops must have completed (guaranteed
  /// because ParallelRange blocks until its loop drains).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool used by ParallelFor, lazily created with
  /// DefaultParallelism() - 1 workers (the submitting thread is the
  /// remaining lane). Never destroyed: workers park until process exit,
  /// which sidesteps static-destruction-order hazards.
  static ThreadPool& Global();

  /// True while the calling thread is executing a chunk of some parallel
  /// loop (worker or helping submitter). ParallelFor consults this to run
  /// nested loops inline instead of oversubscribing.
  static bool InParallelRegion();

  size_t num_workers() const {
    return num_workers_.load(std::memory_order_acquire);
  }

  /// Grows the pool to at least `target` workers (clamped to kMaxWorkers).
  void EnsureWorkers(size_t target);

  /// Runs body(begin, end) over [0, n) split into chunks of `grain`
  /// iterations, distributed over at most `max_threads` lanes (the
  /// submitting thread runs chunk 0, the rest go to max_threads - 1
  /// worker queues; idle workers may still steal for load balancing).
  /// Blocks until every chunk finished; rethrows the first chunk
  /// exception.
  void ParallelRange(size_t n, size_t grain, size_t max_threads,
                     const std::function<void(size_t, size_t)>& body);

 private:
  /// One blocking loop's shared state, stack-allocated by ParallelRange.
  /// The completion handshake goes through `mutex`/`complete` rather than
  /// the atomic counter alone: the waiter may only destroy this object
  /// once the finishing worker has released the mutex, which POSIX
  /// guarantees makes the destruction safe.
  struct Loop {
    const std::function<void(size_t, size_t)>* body = nullptr;
    std::atomic<size_t> pending{0};        // chunks not yet finished
    std::atomic<bool> cancelled{false};    // set by the first exception
    std::mutex mutex;                      // guards error + complete
    std::condition_variable done;
    std::exception_ptr error;
    bool complete = false;
  };

  struct Task {
    Loop* loop = nullptr;
    size_t begin = 0;
    size_t end = 0;
  };

  /// Mutex-guarded deque. Chunk granularity keeps contention negligible;
  /// the deque still gives the owner-front / thief-back discipline of a
  /// classic work-stealing queue.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void WorkerMain(size_t id);
  /// Pops from the caller's own queue front, else steals half of the
  /// fullest visible victim's back. `own` is SIZE_MAX for non-workers.
  bool TryGetTask(size_t own, Task* out);
  bool StealHalf(size_t own, size_t victim, Task* out);
  static void Execute(const Task& task);
  /// Bumps the work epoch and wakes up to `wake` parked workers.
  void Signal(size_t wake);

  // Queue slots are fixed at construction so queues_[i] stays valid while
  // the pool grows.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::atomic<size_t> num_workers_{0};
  std::atomic<size_t> next_queue_{0};  // round-robin distribution cursor

  std::mutex grow_mutex_;  // serializes EnsureWorkers
  std::vector<std::thread> threads_;

  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  uint64_t work_epoch_ = 0;  // guarded by park_mutex_
  bool stop_ = false;        // guarded by park_mutex_
};

}  // namespace csd

#endif  // CSD_UTIL_THREAD_POOL_H_
