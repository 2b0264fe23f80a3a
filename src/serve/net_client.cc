#include "serve/net_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>

#include "util/strings.h"

namespace csd::serve {

Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const char* flag, const std::string& spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument(
        StrFormat("%s expects HOST:PORT, got '%s'", flag, spec.c_str()));
  }
  std::string port_str = spec.substr(colon + 1);
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(StrFormat(
          "%s port '%s' is not a number", flag, port_str.c_str()));
    }
  }
  // The length guard keeps strtoul clear of overflow on absurd inputs.
  unsigned long port = std::strtoul(port_str.c_str(), nullptr, 10);
  if (port_str.size() > 5 || port > 65535) {
    return Status::InvalidArgument(StrFormat(
        "%s port '%s' is out of range (0-65535)", flag, port_str.c_str()));
  }
  return std::make_pair(spec.substr(0, colon), static_cast<uint16_t>(port));
}

Result<std::unique_ptr<NetClient>> NetClient::Connect(const std::string& host,
                                                      uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument(
        StrFormat("'%s' is not an IPv4 address", host.c_str()));
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status failed =
        Status::IoError(StrFormat("connect %s:%u: %s", host.c_str(),
                                  static_cast<unsigned>(port),
                                  strerror(errno)));
    close(fd);
    return failed;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<NetClient>(new NetClient(fd));
}

NetClient::~NetClient() {
  if (fd_ >= 0) close(fd_);
}

Status NetClient::Send(const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("write: %s", strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<NetResponse> NetClient::ReadResponse() {
  for (;;) {
    std::span<const uint8_t> pending(in_.data() + in_off_,
                                     in_.size() - in_off_);
    DecodedFrame frame;
    size_t consumed = 0;
    Status error;
    DecodeStatus ds = DecodeFrame(pending, &frame, &consumed, &error);
    if (ds == DecodeStatus::kError) return error;
    if (ds == DecodeStatus::kFrame) {
      Result<NetResponse> response = ParseResponseFrame(frame);
      in_off_ += consumed;
      if (in_off_ == in_.size()) {
        in_.clear();
        in_off_ = 0;
      }
      return response;
    }
    char buf[64 * 1024];
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n == 0) return Status::IoError("connection closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("read: %s", strerror(errno)));
    }
    // Compact the consumed prefix before growing the buffer.
    if (in_off_ > 0) {
      in_.erase(in_.begin(), in_.begin() + static_cast<long>(in_off_));
      in_off_ = 0;
    }
    in_.insert(in_.end(), buf, buf + n);
  }
}

}  // namespace csd::serve
