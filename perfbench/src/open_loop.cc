#include "open_loop.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "report.h"

namespace csd::perfbench {

namespace {

using Clock = OpenLoopSchedule::Clock;

double ToSeconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// Frames per write: bounds one burst after a stall so the reader and
/// the server see steady traffic.
constexpr size_t kMaxBurst = 64;

}  // namespace

Result<std::unique_ptr<serve::NetClient>> ConnectLoopback(uint16_t port) {
  auto client_or = serve::NetClient::Connect("127.0.0.1", port);
  if (!client_or.ok()) return client_or.status();
  timeval timeout{};
  timeout.tv_usec = 200 * 1000;
  int fd = client_or.value()->fd();
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  timeval send_timeout{};
  send_timeout.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
             sizeof(send_timeout));
  return client_or;
}

LoopOutcome RunOpenLoop(serve::NetClient* client, Clock::time_point start,
                        double rate_per_s, size_t count, size_t warmup,
                        const FrameEncoder& encode,
                        const ResponseCheck& check) {
  LoopOutcome out;
  OpenLoopSchedule schedule(start, rate_per_s);
  out.sent_at.assign(count, 0.0);
  out.done_at.assign(count, 0.0);
  warmup = std::min(warmup, count);
  out.window_s = static_cast<double>(count - warmup) / rate_per_s;
  const Clock::time_point window_end = schedule.Due(count);
  const Clock::time_point measured_start = schedule.Due(warmup);
  out.window_start_s = ToSeconds(measured_start);
  auto at = [&](size_t k) {
    return std::chrono::duration<double>(schedule.Due(k) - measured_start)
        .count();
  };
  std::atomic<size_t> sent{0};
  std::atomic<bool> sender_done{false};
  double reader_cpu_s = 0.0;
  const double sender_cpu0_s = ThreadCpuSeconds();

  // Reader: owns done_at, latency and the response counts.
  std::thread reader([&] {
    const double cpu0_s = ThreadCpuSeconds();
    size_t received = 0;
    Clock::time_point give_up = Clock::time_point::max();
    while (true) {
      size_t target = sent.load(std::memory_order_acquire);
      if (sender_done.load(std::memory_order_acquire)) {
        if (received >= target) break;
        if (give_up == Clock::time_point::max()) {
          give_up = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(kDrainS));
        } else if (Clock::now() > give_up) {
          break;
        }
      }
      auto response_or = client->ReadResponse();
      if (!response_or.ok()) continue;  // read timeout: re-check the end
      const serve::NetResponse& response = response_or.value();
      Clock::time_point now = Clock::now();
      ++received;
      // Unknown ids, duplicates and failed checks earn no verdict; they
      // are counted as failed below.
      size_t k = response.request_id;
      if (k >= count || out.done_at[k] != 0.0) continue;
      if (response.type == serve::FrameType::kErrorResp &&
          response.code == StatusCode::kUnavailable) {
        ++out.shed;
        if (k >= warmup) out.shed_at.push_back(at(k));
        continue;
      }
      if (!check(k, response)) continue;
      ++out.ok;
      out.done_at[k] = ToSeconds(now);
      if (k < warmup) continue;
      out.latency.push_back(
          {at(k), AccountFromDue(schedule.Due(k), now, now).latency_s});
      if (now <= window_end) ++out.completed_in_window;
    }
    reader_cpu_s = ThreadCpuSeconds() - cpu0_s;
  });

  // Sender: owns sent_at and late.
  std::vector<uint8_t> buf;
  size_t next = 0;
  bool send_failed = false;
  while (next < count && !send_failed) {
    Clock::time_point now = Clock::now();
    size_t due = std::min(schedule.DueCount(now), count);
    if (due <= next) {
      std::this_thread::sleep_until(schedule.Due(next));
      continue;
    }
    size_t end = std::min(due, next + kMaxBurst);
    buf.clear();
    for (size_t k = next; k < end; ++k) {
      encode(k, static_cast<uint32_t>(k), &buf);
    }
    Clock::time_point send_time = Clock::now();
    for (size_t k = next; k < end; ++k) {
      out.sent_at[k] = ToSeconds(send_time);
      if (k < warmup) continue;
      DueTiming timing = AccountFromDue(schedule.Due(k), send_time, send_time);
      out.late.push_back({at(k), timing.late_s});
    }
    if (!client->Send(buf).ok()) send_failed = true;
    next = end;
    sent.store(next, std::memory_order_release);
  }
  sender_done.store(true, std::memory_order_release);
  const double sender_cpu_s = ThreadCpuSeconds() - sender_cpu0_s;
  reader.join();
  out.client_cpu_s = sender_cpu_s + reader_cpu_s;
  out.sent = next;
  // Every frame without a verdict failed: unsent, answered wrongly, or
  // never answered.
  out.failed = count - out.ok - out.shed;
  return out;
}

LoopOutcome Merge(std::vector<LoopOutcome> parts) {
  LoopOutcome out;
  for (LoopOutcome& part : parts) {
    out.sent += part.sent;
    out.ok += part.ok;
    out.shed += part.shed;
    out.failed += part.failed;
    out.completed_in_window += part.completed_in_window;
    out.client_cpu_s += part.client_cpu_s;
    out.window_start_s = out.window_s == 0.0 ? part.window_start_s
                                             : std::min(out.window_start_s,
                                                        part.window_start_s);
    out.window_s = std::max(out.window_s, part.window_s);
    out.latency.insert(out.latency.end(), part.latency.begin(),
                       part.latency.end());
    out.late.insert(out.late.end(), part.late.begin(), part.late.end());
    out.shed_at.insert(out.shed_at.end(), part.shed_at.begin(),
                       part.shed_at.end());
  }
  return out;
}

}  // namespace csd::perfbench
