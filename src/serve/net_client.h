#ifndef CSD_SERVE_NET_CLIENT_H_
#define CSD_SERVE_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/frame.h"
#include "util/status.h"

namespace csd::serve {

/// Splits a `HOST:PORT` flag value (port 0-65535, digits only). The
/// InvalidArgument status names `flag` and the offending token, so a
/// bad `--connect host:70000` never silently dials a wrapped port.
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const char* flag, const std::string& spec);

/// Minimal blocking client for the framed protocol — the consumer side
/// used by bench/serve_load, the loopback tests and CI's serve-smoke.
/// One TCP connection; callers encode frames with the Append* helpers
/// of serve/frame.h, Send() them (frames may be concatenated into one
/// Send for pipelining), and ReadResponse() blocks for the next
/// response frame in arrival order — which, with pipelined annotate
/// requests, is completion order, so callers match on request_id.
class NetClient {
 public:
  static Result<std::unique_ptr<NetClient>> Connect(const std::string& host,
                                                    uint16_t port);

  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Writes every byte (handles short writes) or fails.
  Status Send(const std::vector<uint8_t>& bytes);

  /// Blocks until one full response frame arrives and parses it.
  /// IoError("connection closed") when the server hangs up mid-stream.
  Result<NetResponse> ReadResponse();

  int fd() const { return fd_; }

 private:
  explicit NetClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::vector<uint8_t> in_;
  size_t in_off_ = 0;
};

}  // namespace csd::serve

#endif  // CSD_SERVE_NET_CLIENT_H_
