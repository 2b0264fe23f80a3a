#ifndef CSD_PERFBENCH_SERVE_HOST_H_
#define CSD_PERFBENCH_SERVE_HOST_H_

// The in-process serving stack `csdctl serve --listen --shards K
// [--stream 1]` composes, hosted by the benchmark so it can time its own
// calls into each layer and tick the stream itself. Clients reach it
// only over loopback, through the framed protocol.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/net_server.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "shard/shard_plan.h"
#include "stream/stream_ingestor.h"
#include "util/status.h"

namespace csd::perfbench {

/// Event loops of the net front end (csdctl serve's default).
inline constexpr size_t kServerLoops = 1;

/// Seconds spent in each set-up step of one Start().
struct HostSetup {
  double read_pois_s = 0.0;
  double read_journeys_s = 0.0;
  double dataset_s = 0.0;     // serve::MakeServeDataset (POI DB, evidence)
  double snapshot_s = 0.0;    // plan-mode CsdSnapshot build
  double start_s = 0.0;       // store, service, ingestor, net server
  double first_answer_s = 0.0;  // connect + one annotate answered
  double total_s = 0.0;       // from the caller's origin to first answer
};

/// Per-user fold completion times, recorded by the ingest handler after
/// StreamIngestor::IngestFixes returns: entry (n, t) says the user's
/// first n fixes were folded by steady-clock second t.
class FoldLog {
 public:
  void Record(uint32_t user, size_t count, double t);
  /// Time by which `user`'s fix at index `fix` (0-based) was folded;
  /// nullopt if it never was.
  std::optional<double> FoldedBy(uint32_t user, size_t fix) const;
  size_t Folded(uint32_t user) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<std::pair<size_t, double>>> by_user_;
};

class ServeHost {
 public:
  /// Loads the inputs in `dir`, builds the bootstrap snapshot over a
  /// ServePack().serve_shards plan, starts the service and the net front
  /// end (with the stream layer when `stream`), and answers one annotate
  /// request over loopback. `origin_s` is the steady-clock second set-up
  /// time runs from.
  static Result<std::unique_ptr<ServeHost>> Start(const std::string& dir,
                                                  bool stream,
                                                  double origin_s,
                                                  HostSetup* setup);
  ~ServeHost();
  ServeHost(const ServeHost&) = delete;
  ServeHost& operator=(const ServeHost&) = delete;

  uint16_t port() const { return server_->port(); }
  const shard::ShardPlan& plan() const { return *plan_; }
  const serve::ServeDataset& dataset() const { return *dataset_; }
  const serve::SnapshotOptions& snapshot_options() const {
    return snapshot_options_;
  }
  serve::ShardedSnapshotStore& store() { return *store_; }
  /// Null unless started with the stream layer.
  stream::StreamIngestor* ingestor() { return ingestor_.get(); }
  FoldLog& fold_log() { return fold_log_; }
  /// Seconds spent inside IngestFixes, summed over frames.
  double fold_seconds() const;
  size_t journeys() const { return journeys_; }

  /// Stops the front end, then the service (drains admitted work).
  void Shutdown();

 private:
  ServeHost() = default;

  std::optional<shard::ShardPlan> plan_;
  std::shared_ptr<const serve::ServeDataset> dataset_;
  serve::SnapshotOptions snapshot_options_;
  std::unique_ptr<serve::ShardedSnapshotStore> store_;
  std::unique_ptr<serve::ServeService> service_;
  std::unique_ptr<stream::StreamIngestor> ingestor_;
  FoldLog fold_log_;
  mutable std::mutex fold_mutex_;
  std::vector<size_t> user_fixes_;  // guarded by fold_mutex_
  double fold_seconds_ = 0.0;       // guarded by fold_mutex_
  std::unique_ptr<serve::NetServer> server_;
  size_t journeys_ = 0;
  bool shut_down_ = false;
};

}  // namespace csd::perfbench

#endif  // CSD_PERFBENCH_SERVE_HOST_H_
