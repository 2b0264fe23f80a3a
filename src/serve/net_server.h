#ifndef CSD_SERVE_NET_SERVER_H_
#define CSD_SERVE_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/admission.h"
#include "serve/service.h"
#include "traj/trajectory.h"
#include "util/status.h"

namespace csd::serve {

class EventLoop;

/// Everything configurable about the network front end.
struct NetServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port (port() reports the bound one).
  uint16_t port = 0;
  /// Event-loop threads. Each has its own epoll instance; the shared
  /// listening socket is registered EPOLLEXCLUSIVE in every loop, so the
  /// kernel wakes exactly one loop per pending accept and connections
  /// stay pinned to the loop that accepted them (no cross-loop state).
  size_t num_loops = 1;
  /// Pending backlog passed to listen(2).
  int listen_backlog = 128;
  /// Per-connection write-buffer size beyond which the server stops
  /// *reading* from that connection (backpressure): a client that does
  /// not drain responses cannot balloon server memory by pipelining.
  /// Reads resume once the buffer falls below half this.
  size_t max_out_buffer = 4u << 20;
  /// Sink for INGEST_FIX frames. The serving core has no streaming
  /// state of its own — `csdctl serve --stream` plugs the stream layer
  /// in here (csd_serve must not depend on csd_stream). Called on the
  /// event-loop thread that decoded the frame; must be thread-safe and
  /// cheap. Unset means ingest frames answer FailedPrecondition.
  std::function<Status(uint32_t user_id, std::span<const GpsPoint> fixes)>
      ingest_handler;
};

/// Text bodies of the kTextResp frames: `ok <verb> key=value...`, machine
/// parsable and one line each.
std::string FormatQueryResponse(const PatternQueryResult& result);
std::string FormatRebuildResponse(const RebuildResult& result);
std::string FormatStatsResponse(const ServeService& service);

/// The epoll front end of `csdctl serve --listen`: non-blocking sockets
/// speaking the length-prefixed framing of serve/frame.h, decoding
/// straight into AnnotateRequests on the owning ServeService.
///
///   accept ─> per-loop conns ─> decode ─> shard admission ─> service
///      completions (batch thread) ─> loop post queue ─> coalesced write
///
/// Request flow: a loop thread drains readable sockets, decodes every
/// complete frame in the burst, and submits annotations through
/// ServeService::AnnotateStayPointsAsync. The completion callback runs
/// on the batch-execution thread, encodes the response frame there, and
/// posts the bytes to the owning loop (eventfd wakeup); the loop appends
/// them to the connection's write buffer and flushes once per wakeup —
/// write coalescing: one write(2) carries every response that completed
/// since the last flush. A short write arms EPOLLOUT and the remainder
/// goes out when the socket drains.
///
/// Admission is sharded: each loop carries its own AdmissionController
/// with 1/num_loops of the service's annotate budget and sheds excess
/// load locally (error frame, csd_net_shed_total) before touching the
/// service's global controller — the global CAS line is never the
/// cross-core contention point.
///
/// Deadlines ride in the frame header (deadline_ms); the deadline is
/// stamped when the frame is decoded and enforced by the batcher and
/// executor exactly as for in-process callers. The `serve/net_read`
/// failpoint sits on the read path: an injected error counts
/// csd_net_read_faults_total and closes that connection (a transient
/// transport fault), latency-only specs just delay the read burst. The
/// `serve/parse` failpoint sits in ParseRequestFrame: an injected error
/// answers that one frame with an error frame carrying its request_id,
/// and the connection keeps serving.
///
/// Shutdown contract: call Shutdown() (or destroy the server) *before*
/// ServeService::Shutdown(). It stops accepting, closes every
/// connection, joins the loops, then blocks until every in-flight
/// completion callback has run — after it returns no thread of this
/// server touches the service again. Callbacks that complete after
/// their connection died just drop their response.
class NetServer {
 public:
  /// Binds, listens and starts the loops. `service` must outlive the
  /// server.
  static Result<std::unique_ptr<NetServer>> Start(ServeService* service,
                                                  NetServerOptions options);

  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (resolves an ephemeral request).
  uint16_t port() const { return port_; }

  /// Graceful stop; idempotent. See the shutdown contract above.
  void Shutdown();

  ServeService& service() { return *service_; }
  const NetServerOptions& options() const { return options_; }

 private:
  friend class EventLoop;
  NetServer(ServeService* service, NetServerOptions options);

  Status Bind();

  /// In-flight async completions (annotate/rebuild callbacks holding a
  /// pointer into this server). Shutdown waits for zero.
  void TrackCompletion();
  void CompletionDone();

  ServeService* service_;
  NetServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;

  std::mutex lifecycle_mutex_;
  std::condition_variable completions_cv_;
  size_t outstanding_completions_ = 0;
  bool shut_down_ = false;
};

}  // namespace csd::serve

#endif  // CSD_SERVE_NET_SERVER_H_
