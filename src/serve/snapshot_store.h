#ifndef CSD_SERVE_SNAPSHOT_STORE_H_
#define CSD_SERVE_SNAPSHOT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>
#include <version>

#include "serve/snapshot.h"

// Detect ThreadSanitizer on both GCC (__SANITIZE_THREAD__) and Clang
// (__has_feature).
#if defined(__SANITIZE_THREAD__)
#define CSD_SERVE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CSD_SERVE_TSAN 1
#endif
#endif

namespace csd::serve {

/// The serving store: one global lane (the full-city snapshot — pattern
/// queries and the geo-router's plan source) plus one lane per spatial
/// shard. K=1 is the monolithic case: one shard lane beside the global
/// one, both holding the same generation until a shard rebuild.
///
/// Every lane is an RCU cell. Readers acquire the live snapshot as a
/// shared_ptr copy through std::atomic<std::shared_ptr> (no store-wide
/// lock, never blocked by a publish); in-flight requests keep annotating
/// against the generation they acquired, and an old generation is
/// reclaimed by the shared_ptr control block the moment its last reader
/// releases it — no quiescence wait and no epoch bookkeeping to leak.
///
/// All lanes share one monotonic version counter, so "shard 3 is newer
/// than the global snapshot" is a meaningful comparison; a snapshot is
/// stamped exactly once, then fanned out. Publishes are serialized by a
/// mutex (they are rare — one per rebuild); Acquire never takes it.
///
/// PublishAll seeds every lane with the same full-city generation (the
/// bootstrap and full-rebuild path); PublishShard replaces one shard's
/// lane only — the per-shard rebuild path, which is what lets one tile
/// rebuild without stalling annotation anywhere else in the city.
class ShardedSnapshotStore {
 public:
  explicit ShardedSnapshotStore(size_t num_shards);

  size_t num_shards() const { return lanes_.size(); }

  /// The global lane's generation, or nullptr before the first
  /// PublishAll. The returned pointer pins the snapshot: hold it for the
  /// duration of one request (or one batch) and let it go.
  std::shared_ptr<const CsdSnapshot> Acquire() const {
    return global_.Acquire();
  }
  std::shared_ptr<const CsdSnapshot> AcquireShard(size_t s) const {
    return lanes_[s].Acquire();
  }

  /// Stamps `next` once and publishes it to the global lane and every
  /// shard lane. Returns the stamped version.
  uint64_t PublishAll(std::shared_ptr<CsdSnapshot> next);

  /// Stamps `next` once and publishes it to shard `s` only. The global
  /// lane and the other shards keep serving their current generations.
  uint64_t PublishShard(size_t s, std::shared_ptr<CsdSnapshot> next);

  /// Version of the global lane's generation (0 before the first
  /// PublishAll) — the service's "is anything published yet" check.
  uint64_t current_version() const { return global_.version(); }
  uint64_t shard_version(size_t s) const { return lanes_[s].version(); }

 private:
  /// One RCU cell. Not movable (atomics), so the lane vector is sized
  /// once at construction and never reallocates.
  class Lane {
   public:
    std::shared_ptr<const CsdSnapshot> Acquire() const;
    /// Swaps in a snapshot already stamped with `version`; callers hold
    /// the store's publish mutex.
    void Store(std::shared_ptr<const CsdSnapshot> next, uint64_t version);
    uint64_t version() const {
      return version_.load(std::memory_order_acquire);
    }

   private:
    std::atomic<uint64_t> version_{0};
// Under ThreadSanitizer, use the free-function atomic shared_ptr protocol
// (a mutex pool tsan understands) instead of std::atomic<shared_ptr>:
// libstdc++'s _Sp_atomic::load releases its embedded spinlock with
// memory_order_relaxed, which is mutually exclusive on real hardware (the
// lock bit is an RMW) but carries no happens-before edge, so tsan reports
// the guarded _M_ptr accesses as racing.
#if defined(__cpp_lib_atomic_shared_ptr) && !defined(CSD_SERVE_TSAN)
#define CSD_SERVE_ATOMIC_SHARED_PTR 1
    std::atomic<std::shared_ptr<const CsdSnapshot>> current_;
#else
    // Pre-C++20 libraries and tsan builds: free-function protocol.
    std::shared_ptr<const CsdSnapshot> current_;
#endif
  };

  std::mutex publish_mutex_;
  uint64_t last_version_ = 0;  // guarded by publish_mutex_
  Lane global_;
  std::vector<Lane> lanes_;
};

}  // namespace csd::serve

#endif  // CSD_SERVE_SNAPSHOT_STORE_H_
