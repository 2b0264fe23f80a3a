#ifndef CSD_PERFBENCH_OPEN_LOOP_H_
#define CSD_PERFBENCH_OPEN_LOOP_H_

// Open-loop frame generator for one loopback connection: a sender thread
// writes frame k when it falls due on a fixed-interval schedule — every
// frame already due goes out in one write, whatever is still in flight —
// and a reader thread matches responses by request_id. Latency is
// charged from each frame's due time (stats.h AccountFromDue).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serve/frame.h"
#include "serve/net_client.h"
#include "stats.h"

namespace csd::perfbench {

/// Appends frame k (request_id = k) to `out`.
using FrameEncoder = std::function<void(size_t k, uint32_t request_id,
                                        std::vector<uint8_t>* out)>;
/// Judges response k: true for success. Runs on the reader thread.
using ResponseCheck =
    std::function<bool(size_t k, const serve::NetResponse& response)>;

struct LoopOutcome {
  size_t sent = 0;
  size_t ok = 0;
  size_t shed = 0;    // kUnavailable error frames (admission shedding)
  size_t failed = 0;  // other errors, bad frames, and frames never answered
  /// Measured (post-warm-up) successes done before the window ended,
  /// and the measured window's start (steady-clock seconds) and length.
  size_t completed_in_window = 0;
  double window_start_s = 0.0;
  double window_s = 0.0;
  /// Measured successful frames' latency from due time, and every
  /// measured sent frame's lateness (send - due), in seconds, each at
  /// its due time from the start of the measured window.
  std::vector<TimedSample> latency;
  std::vector<TimedSample> late;
  /// Due times (same origin) of the measured frames that were shed.
  std::vector<double> shed_at;
  /// Per frame index: steady-clock seconds of its send (0 if unsent)
  /// and of its successful response (0 if none).
  std::vector<double> sent_at;
  std::vector<double> done_at;
  /// CPU seconds the sender and reader threads used.
  double client_cpu_s = 0.0;
};

/// Connects to 127.0.0.1:port with read/write timeouts set, so a stuck
/// server fails the run instead of hanging it.
Result<std::unique_ptr<serve::NetClient>> ConnectLoopback(uint16_t port);

/// Seconds the reader waits after the last send for the last responses.
inline constexpr double kDrainS = 2.0;

/// Sends `count` frames at `rate_per_s` starting at `start` and waits up
/// to kDrainS after the last send for their responses. The first
/// `warmup` frames are sent and judged but left out of the latency,
/// lateness and in-window figures. Uses two threads (sender, reader)
/// for its duration.
LoopOutcome RunOpenLoop(serve::NetClient* client,
                        OpenLoopSchedule::Clock::time_point start,
                        double rate_per_s, size_t count, size_t warmup,
                        const FrameEncoder& encode,
                        const ResponseCheck& check);

/// Merges per-connection outcomes (latency, lateness and counts).
LoopOutcome Merge(std::vector<LoopOutcome> parts);

}  // namespace csd::perfbench

#endif  // CSD_PERFBENCH_OPEN_LOOP_H_
