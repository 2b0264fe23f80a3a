#include "serve/net_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/frame.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace csd::serve {

namespace {

obs::Counter& ConnectionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_net_connections_total", "Connections accepted by the net server");
  return c;
}

obs::Gauge& ActiveConnectionsGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Get().GetGauge(
      "csd_net_active_connections", "Currently open net-server connections");
  return g;
}

obs::Counter& FramesReadCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_net_frames_read_total", "Request frames decoded off the wire");
  return c;
}

obs::Counter& FramesWrittenCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_net_frames_written_total", "Response frames queued to the wire");
  return c;
}

obs::Counter& BytesReadCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_net_bytes_read_total", "Bytes read off net-server sockets");
  return c;
}

obs::Counter& BytesWrittenCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_net_bytes_written_total", "Bytes written to net-server sockets");
  return c;
}

obs::Counter& DecodeErrorsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_net_decode_errors_total",
      "Connections closed on an unrecoverable framing error");
  return c;
}

obs::Counter& ReadFaultsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_net_read_faults_total",
      "Connections closed by the serve/net_read failpoint");
  return c;
}

obs::Counter& BackpressureStallsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_net_backpressure_stalls_total",
      "Times a connection's reads were paused on a full write buffer");
  return c;
}

obs::Counter& ShedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_net_shed_total",
      "Requests shed by a loop's admission shard before the service");
  return c;
}

/// Touches every csd_net_* metric so a scrape of a healthy server shows
/// explicit zeros for the error counters instead of omitting them (the
/// CI smoke greps for csd_net_decode_errors_total 0).
void RegisterNetMetrics() {
  ConnectionsCounter();
  ActiveConnectionsGauge();
  FramesReadCounter();
  FramesWrittenCounter();
  BytesReadCounter();
  BytesWrittenCounter();
  DecodeErrorsCounter();
  ReadFaultsCounter();
  BackpressureStallsCounter();
  ShedCounter();
}

Status Errno(const char* what) {
  return Status::IoError(StrFormat("%s: %s", what, strerror(errno)));
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

std::string FormatQueryResponse(const PatternQueryResult& result) {
  std::string out =
      StrFormat("ok query v=%" PRIu64 " unit=%u patterns=",
                result.snapshot_version, result.unit);
  for (size_t i = 0; i < result.pattern_ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(result.pattern_ids[i]);
  }
  return out;
}

std::string FormatRebuildResponse(const RebuildResult& result) {
  return StrFormat("ok rebuild v=%" PRIu64
                   " units=%zu patterns=%zu seconds=%.3f",
                   result.version, result.num_units, result.num_patterns,
                   result.seconds);
}

std::string FormatStatsResponse(const ServeService& service) {
  const AdmissionController& admission = service.admission();
  std::string out = StrFormat(
      "ok stats version=%" PRIu64 " live_snapshots=%" PRIu64 " depth=%zu",
      service.store().current_version(), CsdSnapshot::LiveCount(),
      service.QueueDepth());
  for (RequestClass c : {RequestClass::kAnnotate, RequestClass::kQuery,
                         RequestClass::kRebuild}) {
    out += StrFormat(" %s=%" PRIu64 "/%" PRIu64, RequestClassName(c),
                     admission.Admitted(c), admission.Rejected(c));
  }
  return out;
}

/// One accepted connection, owned by exactly one EventLoop. All fields
/// are touched only on the loop thread; completion callbacks never
/// write here — they post encoded bytes to the loop, which appends and
/// flushes. shared_ptr keeps the struct alive for posts that race the
/// close (they see `closed` and drop) and for the loop's own call
/// chains that may close the connection partway down.
struct Conn {
  int fd = -1;
  bool closed = false;
  /// Receive buffer with a consumed prefix; compacted when drained.
  std::vector<uint8_t> in;
  size_t in_off = 0;
  /// Write buffer with a flushed prefix (the coalescing buffer).
  std::vector<uint8_t> out;
  size_t out_off = 0;
  bool want_write = false;   // EPOLLOUT armed
  bool read_paused = false;  // EPOLLIN dropped (backpressure)
  bool flushing = false;     // re-entrancy guard for FlushConn
  bool processing = false;   // re-entrancy guard for ProcessFrames
};

/// One epoll thread: owns its accepted connections, its completion
/// queue, and a shard of the annotate admission budget.
class EventLoop {
 public:
  EventLoop(NetServer* server, size_t shard_budget)
      : server_(server),
        shard_(AdmissionLimits{
            .annotate = shard_budget, .query = 1, .rebuild = 1}) {}

  /// The wake fd outlives the loop thread: RequestStop and Post may
  /// still be writing to it while Run() winds down, so it closes only
  /// here, after Join().
  ~EventLoop() {
    Join();
    if (event_fd_ >= 0) close(event_fd_);
  }
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Status Start(int listen_fd) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    event_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (event_fd_ < 0) return Errno("eventfd");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEventFdTag;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
      return Errno("epoll_ctl(eventfd)");
    }
    ev = epoll_event{};
    ev.events = EPOLLIN;
#ifdef EPOLLEXCLUSIVE
    // One kernel wakeup per pending accept across all loops instead of
    // a thundering herd on every connection.
    ev.events |= EPOLLEXCLUSIVE;
#endif
    ev.data.u64 = kListenTag;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd, &ev) < 0) {
      return Errno("epoll_ctl(listen)");
    }
    listen_fd_ = listen_fd;
    thread_ = std::thread([this] { Run(); });
    return Status::OK();
  }

  /// Wakes the loop and makes Run() exit; joinable afterwards.
  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Queues encoded response bytes for `conn` and wakes the loop. Safe
  /// from any thread; a post after the loop exited is dropped (the
  /// connection is gone with it). The wakeup is written under the lock,
  /// so none can land after ShutdownLoop has closed posting.
  void Post(std::shared_ptr<Conn> conn, std::vector<uint8_t> bytes) {
    std::lock_guard<std::mutex> lock(post_mutex_);
    if (!open_) return;
    posts_.push_back({std::move(conn), std::move(bytes)});
    if (posts_.size() == 1) Wake();  // else a wakeup is already pending
  }

 private:
  static constexpr uint64_t kListenTag = 0;
  static constexpr uint64_t kEventFdTag = 1;

  struct Done {
    std::shared_ptr<Conn> conn;
    std::vector<uint8_t> bytes;
  };

  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(event_fd_, &one, sizeof(one));
  }

  void Run() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    while (!stop_.load(std::memory_order_acquire)) {
      int n = epoll_wait(epoll_fd_, events, kMaxEvents, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        if (events[i].data.u64 == kListenTag) {
          AcceptBurst();
        } else if (events[i].data.u64 == kEventFdTag) {
          DrainEventFd();
        } else {
          HandleConnEvent(static_cast<Conn*>(events[i].data.ptr),
                          events[i].events);
        }
      }
      DrainPosts();
    }
    ShutdownLoop();
  }

  void AcceptBurst() {
    for (;;) {
      int fd = accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN (or a racing loop took it)
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        close(fd);
        continue;
      }
      conns_.emplace(conn.get(), conn);
      ConnectionsCounter().Increment();
      ActiveConnectionsGauge().Add(1.0);
    }
  }

  void DrainEventFd() {
    uint64_t drained;
    while (read(event_fd_, &drained, sizeof(drained)) > 0) {
    }
  }

  void DrainPosts() {
    std::deque<Done> batch;
    {
      std::lock_guard<std::mutex> lock(post_mutex_);
      batch.swap(posts_);
    }
    for (Done& done : batch) {
      Conn* conn = done.conn.get();
      if (conn->closed) continue;
      conn->out.insert(conn->out.end(), done.bytes.begin(),
                       done.bytes.end());
      FramesWrittenCounter().Increment();
    }
    // Coalesced flush: every response that completed since the last
    // wakeup leaves in as few write(2) calls as the socket allows.
    for (Done& done : batch) {
      Conn* conn = done.conn.get();
      if (!conn->closed && conn->out.size() > conn->out_off) {
        FlushConn(conn);
      }
    }
  }

  void HandleConnEvent(Conn* conn, uint32_t events) {
    auto it = conns_.find(conn);
    if (it == conns_.end()) return;
    // Keeps the Conn alive through the whole call chain even if
    // something below closes it and erases the map entry.
    std::shared_ptr<Conn> guard = it->second;
    if (conn->closed) return;
    if (events & (EPOLLHUP | EPOLLERR)) {
      CloseConn(conn);
      return;
    }
    if (events & EPOLLOUT) FlushConn(conn);
    if (conn->closed) return;
    if (events & EPOLLIN) ReadBurst(conn);
  }

  void ReadBurst(Conn* conn) {
    CSD_TRACE_SPAN("serve/net_read_burst");
    // Fault-injection site for the transport: an injected error is a
    // transient read failure and costs that connection; a latency-only
    // spec just delays the burst (the chaos CI job runs with this
    // armed and asserts the server keeps answering).
    Status injected = CSD_FAILPOINT_EVAL("serve/net_read");
    if (!injected.ok()) {
      ReadFaultsCounter().Increment();
      CloseConn(conn);
      return;
    }
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        BytesReadCounter().Increment(static_cast<uint64_t>(n));
        conn->in.insert(conn->in.end(), buf, buf + n);
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {  // peer closed
        CloseConn(conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(conn);
      return;
    }
    ProcessFrames(conn);
    if (!conn->closed && conn->out.size() > conn->out_off) FlushConn(conn);
  }

  void ProcessFrames(Conn* conn) {
    if (conn->processing) return;
    conn->processing = true;
    for (;;) {
      std::span<const uint8_t> pending(conn->in.data() + conn->in_off,
                                       conn->in.size() - conn->in_off);
      DecodedFrame frame;
      size_t consumed = 0;
      Status error;
      DecodeStatus ds = DecodeFrame(pending, &frame, &consumed, &error);
      if (ds == DecodeStatus::kNeedMore) break;
      if (ds == DecodeStatus::kError) {
        // A length-prefixed stream cannot resynchronize after a corrupt
        // header: answer with the reason (best effort) and hang up.
        DecodeErrorsCounter().Increment();
        AppendErrorResponse(0, error, &conn->out);
        FramesWrittenCounter().Increment();
        conn->processing = false;
        FlushConn(conn);
        if (!conn->closed) CloseConn(conn);
        return;
      }
      FramesReadCounter().Increment();
      DispatchFrame(conn, frame);
      conn->in_off += consumed;
      if (conn->closed) {
        conn->processing = false;
        return;
      }
      if (conn->read_paused) break;  // backpressure: stop decoding too
    }
    conn->processing = false;
    // Compact once the consumed prefix dominates; amortized O(1).
    if (conn->in_off == conn->in.size()) {
      conn->in.clear();
      conn->in_off = 0;
    } else if (conn->in_off > 4096 && conn->in_off * 2 > conn->in.size()) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() + static_cast<long>(conn->in_off));
      conn->in_off = 0;
    }
  }

  void DispatchFrame(Conn* conn, const DecodedFrame& frame) {
    Result<NetRequest> parsed = ParseRequestFrame(frame);
    if (!parsed.ok()) {
      AppendErrorResponse(frame.header.request_id, parsed.status(),
                          &conn->out);
      FramesWrittenCounter().Increment();
      return;
    }
    NetRequest& request = parsed.value();
    switch (request.type) {
      case FrameType::kAnnotateReq:
      case FrameType::kJourneyReq:
        SubmitAnnotate(conn, std::move(request));
        break;
      case FrameType::kQueryUnitReq: {
        Result<PatternQueryResult> result =
            server_->service_->QueryPatternsByUnit(request.unit);
        if (result.ok()) {
          AppendTextResponse(request.request_id,
                             FormatQueryResponse(result.value()),
                             &conn->out);
        } else {
          AppendErrorResponse(request.request_id, result.status(),
                              &conn->out);
        }
        FramesWrittenCounter().Increment();
        break;
      }
      case FrameType::kRebuildReq:
        SubmitRebuild(conn, request.request_id);
        break;
      case FrameType::kStatsReq:
        AppendTextResponse(request.request_id,
                           FormatStatsResponse(*server_->service_),
                           &conn->out);
        FramesWrittenCounter().Increment();
        break;
      case FrameType::kIngestFix: {
        // Synchronous on purpose: the stream layer's fold is detector +
        // Gaussian accumulation only (rebuilds happen on publish ticks,
        // never here), so it is cheap enough for the loop thread and the
        // response order doubles as an ingestion acknowledgement.
        if (!server_->options_.ingest_handler) {
          AppendErrorResponse(
              request.request_id,
              Status::FailedPrecondition(
                  "ingest: no stream layer attached (serve --stream)"),
              &conn->out);
        } else {
          Status folded = server_->options_.ingest_handler(
              request.user_id, std::span<const GpsPoint>(request.fixes));
          if (folded.ok()) {
            AppendTextResponse(
                request.request_id,
                StrFormat("ok ingest %zu", request.fixes.size()),
                &conn->out);
          } else {
            AppendErrorResponse(request.request_id, folded, &conn->out);
          }
        }
        FramesWrittenCounter().Increment();
        break;
      }
      default:
        AppendErrorResponse(
            request.request_id,
            Status::ParseError("frame: response type on the request path"),
            &conn->out);
        FramesWrittenCounter().Increment();
        break;
    }
  }

  void SubmitAnnotate(Conn* conn, NetRequest request) {
    // Local shed before the service's global controller: the shard's
    // CAS line is loop-private, so overload answers never contend
    // across event loops. The ticket is shared_ptr-held because it
    // rides in a std::function (copyable) completion callback.
    auto shard_ticket = std::make_shared<AdmissionTicket>(
        &shard_, RequestClass::kAnnotate);
    if (!shard_ticket->ok()) {
      ShedCounter().Increment();
      AppendErrorResponse(request.request_id, shard_ticket->status(),
                          &conn->out);
      FramesWrittenCounter().Increment();
      return;
    }
    auto deadline = kNoDeadline;
    if (request.deadline_ms > 0) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(request.deadline_ms);
    }
    uint32_t request_id = request.request_id;
    std::shared_ptr<Conn> owned = conns_.at(conn);
    server_->TrackCompletion();
    // The callback encodes on the completing thread (cheap, off the
    // loop) and posts the bytes home; the shard slot frees first so
    // the budget is available the moment the answer exists.
    Status submitted = server_->service_->AnnotateStayPointsAsync(
        std::move(request.stays), deadline,
        [this, owned = std::move(owned), request_id,
         shard_ticket](AnnotateResult result) {
          shard_ticket->Release();
          std::vector<uint8_t> bytes;
          if (result.status.ok()) {
            AppendAnnotateResponse(request_id, result, &bytes);
          } else {
            AppendErrorResponse(request_id, result.status, &bytes);
          }
          Post(owned, std::move(bytes));
          server_->CompletionDone();
        });
    if (!submitted.ok()) {
      // Never admitted: the callback will not run.
      server_->CompletionDone();
      AppendErrorResponse(request_id, submitted, &conn->out);
      FramesWrittenCounter().Increment();
    }
  }

  void SubmitRebuild(Conn* conn, uint32_t request_id) {
    std::shared_ptr<Conn> owned = conns_.at(conn);
    server_->TrackCompletion();
    Status submitted = server_->service_->TriggerRebuildAsync(
        [this, owned = std::move(owned),
         request_id](RebuildResult result) {
          std::vector<uint8_t> bytes;
          if (result.status.ok()) {
            AppendTextResponse(request_id, FormatRebuildResponse(result),
                               &bytes);
          } else {
            AppendErrorResponse(request_id, result.status, &bytes);
          }
          Post(owned, std::move(bytes));
          server_->CompletionDone();
        });
    if (!submitted.ok()) {
      server_->CompletionDone();
      AppendErrorResponse(request_id, submitted, &conn->out);
      FramesWrittenCounter().Increment();
    }
  }

  void FlushConn(Conn* conn) {
    if (conn->flushing || conn->closed) return;
    conn->flushing = true;
    CSD_TRACE_SPAN("serve/net_write_burst");
    bool blocked = false;
    while (conn->out_off < conn->out.size()) {
      ssize_t n = write(conn->fd, conn->out.data() + conn->out_off,
                        conn->out.size() - conn->out_off);
      if (n > 0) {
        BytesWrittenCounter().Increment(static_cast<uint64_t>(n));
        conn->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        blocked = true;
        break;
      }
      if (n < 0 && errno == EINTR) continue;
      conn->flushing = false;
      CloseConn(conn);
      return;
    }
    if (!blocked) {
      conn->out.clear();
      conn->out_off = 0;
    }
    ArmWrite(conn, blocked);
    conn->flushing = false;
    UpdateBackpressure(conn);
  }

  /// Pauses reads while the unflushed write buffer is past the ceiling,
  /// resumes below half of it — EPOLLIN interest is the flow-control
  /// valve, so a slow consumer stalls its own pipeline instead of
  /// growing server memory.
  void UpdateBackpressure(Conn* conn) {
    size_t backlog = conn->out.size() - conn->out_off;
    if (!conn->read_paused && backlog > server_->options_.max_out_buffer) {
      conn->read_paused = true;
      BackpressureStallsCounter().Increment();
      UpdateEvents(conn);
    } else if (conn->read_paused &&
               backlog < server_->options_.max_out_buffer / 2) {
      conn->read_paused = false;
      UpdateEvents(conn);
      // Frames already buffered when reads paused saw no further
      // decode; pick them back up now that there is room to answer.
      if (!conn->processing) {
        ProcessFrames(conn);
        if (!conn->closed && conn->out.size() > conn->out_off) {
          FlushConn(conn);
        }
      }
    }
  }

  void ArmWrite(Conn* conn, bool want) {
    if (conn->want_write == want) return;
    conn->want_write = want;
    UpdateEvents(conn);
  }

  void UpdateEvents(Conn* conn) {
    epoll_event ev{};
    ev.events = (conn->read_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                (conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.ptr = conn;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void CloseConn(Conn* conn) {
    if (conn->closed) return;
    conn->closed = true;
    close(conn->fd);  // also deregisters from epoll
    ActiveConnectionsGauge().Add(-1.0);
    conns_.erase(conn);  // frees the Conn unless a post still holds it
  }

  void ShutdownLoop() {
    {
      // After open_ flips, posts are dropped at the door; in-flight
      // completion callbacks finish against NetServer's counter.
      std::lock_guard<std::mutex> lock(post_mutex_);
      open_ = false;
      posts_.clear();
    }
    std::vector<std::shared_ptr<Conn>> open_conns;
    open_conns.reserve(conns_.size());
    for (auto& [ptr, conn] : conns_) open_conns.push_back(conn);
    for (auto& conn : open_conns) CloseConn(conn.get());
    if (epoll_fd_ >= 0) close(epoll_fd_);
  }

  NetServer* server_;
  AdmissionController shard_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};

  /// Loop-thread only.
  std::unordered_map<Conn*, std::shared_ptr<Conn>> conns_;

  std::mutex post_mutex_;
  std::deque<Done> posts_;
  bool open_ = true;
};

NetServer::NetServer(ServeService* service, NetServerOptions options)
    : service_(service), options_(std::move(options)) {}

Result<std::unique_ptr<NetServer>> NetServer::Start(ServeService* service,
                                                    NetServerOptions options) {
  if (options.num_loops == 0) options.num_loops = 1;
  RegisterNetMetrics();
  std::unique_ptr<NetServer> server(
      new NetServer(service, std::move(options)));
  Status bound = server->Bind();
  if (!bound.ok()) return bound;

  size_t shard_budget = std::max<size_t>(
      1, service->admission().limits().annotate / server->options_.num_loops);
  for (size_t i = 0; i < server->options_.num_loops; ++i) {
    server->loops_.push_back(
        std::make_unique<EventLoop>(server.get(), shard_budget));
    Status started = server->loops_.back()->Start(server->listen_fd_);
    if (!started.ok()) {
      server->Shutdown();
      return started;
    }
  }
  return server;
}

Status NetServer::Bind() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(StrFormat(
        "listen host '%s' is not an IPv4 address", options_.host.c_str()));
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (listen(listen_fd_, options_.listen_backlog) < 0) {
    return Errno("listen");
  }
  CSD_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

NetServer::~NetServer() { Shutdown(); }

void NetServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  for (auto& loop : loops_) loop->RequestStop();
  for (auto& loop : loops_) loop->Join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Completion callbacks may still be running on the batch/rebuild
  // threads; they hold pointers into this object, so destruction must
  // wait them out. Their posts land in closed loops and are dropped.
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  completions_cv_.wait(lock,
                       [this] { return outstanding_completions_ == 0; });
}

void NetServer::TrackCompletion() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  ++outstanding_completions_;
}

void NetServer::CompletionDone() {
  // Notify under the lock: once the count reads 0, Shutdown may return
  // and the destructor free completions_cv_, so a notify issued after
  // unlocking could land on a destroyed condition variable.
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (--outstanding_completions_ == 0) completions_cv_.notify_all();
}

}  // namespace csd::serve
