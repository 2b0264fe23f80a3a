// serve_load — load generator for the serving layer (src/serve).
//
//   serve_load [--clients 4] [--requests 500]          closed loop + net
//   serve_load --qps 2000 [--duration-s 5]             open loop
//   serve_load --net [--connections 8] [--inflight 32] net loopback only
//   serve_load --connect HOST:PORT                     net vs external server
//   serve_load --connect HOST:PORT --mixed 1000        mixed request stream
//   serve_load --shards 4 [--megacity]                 sharded build + serve
//   serve_load --help                                  full flag reference
//
// The default phase serves from a one-shard (K=1) store: the monolithic
// deployment, on the same geo-routed path every --shards K run takes.
//
// Closed loop: `clients` threads each issue `requests` annotation requests
// back to back (issue, wait, repeat) — the classic latency-under-
// concurrency shape. Open loop: one pacer thread issues Poisson-less
// fixed-interval requests at `qps` regardless of completions, the shape
// that exposes queueing collapse. Both trigger one background rebuild at
// the halfway point and require every admitted request to complete against
// a consistent snapshot — the publish must be invisible to in-flight work.
//
// Net modes drive the framed binary protocol of src/serve/frame.h over
// real sockets: `connections` blocking clients each keep `inflight`
// pipelined frames outstanding (windowed closed loop), or pace qps/N
// sends per connection when --qps is also given (open loop). The default
// invocation runs the in-process closed loop AND a loopback net phase
// (an in-process NetServer on an ephemeral port), emitting both runs to
// the trajectory; --connect targets a `csdctl serve --listen` started
// elsewhere, which is what CI's serve-smoke does. The net phase reports
// annotate_qps_net / net_p50 / net_p99 and skips the mid-run rebuild —
// on small machines the rebuild would serialize with the event loop and
// measure the scheduler, not the server.
//
// Results (client-observed p50/p90/p99 latency, achieved QPS, rebuild
// seconds) are appended to the benchmark trajectory JSON (default
// BENCH_serve.json, override with CSD_BENCH_JSON or --json) in the
// bench_common.h schema: percentiles as lower-is-better "stages" entries,
// throughput as a higher-is-better "rates" entry, so tools/bench_diff
// gates both directions.
//
// --connect HOST:PORT --mixed N sends N deterministic frames (mixed
// annotate/journey/query-unit/stats with one rebuild at N/2) to an
// external server and prints the ok/err tally with the error codes; CI's
// serve-smoke asserts on it.
//
// --shards K runs the sharded phase instead: the city's CSD snapshot is
// built once monolithically and once through shard::ShardedCsdBuild over a
// K-tile plan (byte-identical result), served from a ShardedSnapshotStore
// with geo-routed annotation, and one single-tile rebuild is timed — the
// rate shard_build_speedup = monolithic_build / shard_rebuild is the
// turnaround win of rebuilding one tile instead of the whole city, and
// annotate_qps_sharded is the geo-routed closed-loop throughput. With
// --megacity the dataset is synth::MegacityConfig() (64 km × 64 km, 1M
// POIs) instead of the CSD_BENCH_POIS laptop city.
//
// Dataset scale follows the other benches: CSD_BENCH_POIS,
// CSD_BENCH_AGENTS, CSD_BENCH_DAYS environment variables.

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "scenario/chaos_timeline.h"
#include "scenario/scenario.h"
#include "serve/frame.h"
#include "shard/sharded_build.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "stream/stream_ingestor.h"
#include "synth/city_generator.h"
#include "synth/trace_replayer.h"
#include "synth/trip_generator.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace csd::bench {
namespace {

struct LoadConfig {
  size_t clients = 4;
  size_t requests = 500;   // per client (closed loop)
  double qps = 0.0;        // > 0 switches to open loop
  double duration_s = 5.0; // open-loop run length
  size_t mixed = 0;        // with --connect: mixed request stream
  std::string json_path;
  // Net modes (framed binary protocol over TCP).
  bool net = false;            // loopback net phase only
  std::string connect;         // HOST:PORT of an external server
  size_t connections = 8;      // client connections
  size_t inflight = 32;        // pipelined frames per connection
  size_t net_requests = 20000; // per connection (net closed loop)
  // Sharded phase (ShardedSnapshotStore + geo-routed annotation).
  size_t shards = 0;           // > 0 switches to the sharded phase
  bool megacity = false;       // use synth::MegacityConfig() for it
  // Streaming phase (fix-by-fix ingest + incremental publication).
  bool stream = false;
  size_t ingest_fixes = 0;     // with --connect: send INGEST_FIX frames
  // Scenario mode (src/scenario packs: phased load + chaos end to end).
  std::string scenario;
  bool list_scenarios = false;
};

constexpr char kUsage[] =
    "usage: serve_load [flags]\n"
    "\n"
    "Load generator for the CSD serving layer. Default run: a one-shard\n"
    "(K=1) store driven by an in-process closed loop + loopback net\n"
    "phase, results appended to BENCH_serve.json (override:\n"
    "CSD_BENCH_JSON or --json).\n"
    "\n"
    "  --clients N        closed-loop client threads (default 4)\n"
    "  --requests M       requests per closed-loop client (default 500)\n"
    "  --qps Q            open loop at Q requests/s instead\n"
    "  --duration-s S     open-loop run length (default 5)\n"
    "  --net              loopback net phase only\n"
    "  --connect HOST:PORT  drive an external csdctl serve --listen\n"
    "  --connections N    net client connections (default 8)\n"
    "  --inflight M       pipelined frames per connection (default 32)\n"
    "  --net-requests R   frames per connection, net closed loop\n"
    "  --shards K         sharded phase: monolithic vs K-tile sharded\n"
    "                     snapshot build, geo-routed annotation, one\n"
    "                     single-tile rebuild (rates: shard_build_speedup,\n"
    "                     annotate_qps_sharded)\n"
    "  --megacity         use the 1M-POI megacity preset for --shards\n"
    "  --stream           streaming phase: replayed fixes through the\n"
    "                     online detector + incremental publication\n"
    "                     (rates: ingest_fixes_per_sec,\n"
    "                     incremental_rebuild_speedup)\n"
    "  --ingest-fixes N   with --connect: stream N replayed fixes as\n"
    "                     INGEST_FIX frames (CI's stream-smoke)\n"
    "  --scenario NAME    run a workload pack end to end: phased open-loop\n"
    "                     annotate + paced ingest per the pack's schedule,\n"
    "                     chaos windows armed per phase. Hosts the pack's\n"
    "                     city in-process by default; with --connect the\n"
    "                     pack drives an external csdctl serve --scenario.\n"
    "                     Per-phase rates land in the trajectory under the\n"
    "                     'scenario:NAME' run label\n"
    "  --list-scenarios   print the registered packs and exit\n"
    "  --mixed N          with --connect: N mixed annotate/journey/\n"
    "                     query-unit/stats frames plus one rebuild at N/2;\n"
    "                     prints the ok/err tally and error codes\n"
    "  --json PATH        trajectory output path\n"
    "  --help             this text\n"
    "\n"
    "Dataset scale: CSD_BENCH_POIS, CSD_BENCH_AGENTS, CSD_BENCH_DAYS.\n";

/// Deterministic request stream: stay points uniform over the city, 1–4
/// stays per request. Seeded per client so threads don't share an Rng.
std::vector<StayPoint> MakeRequest(Rng& rng, const CityConfig& city) {
  size_t n = static_cast<size_t>(rng.UniformInt(1, 4));
  std::vector<StayPoint> stays;
  stays.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stays.emplace_back(Vec2{rng.Uniform(0.0, city.width_m),
                            rng.Uniform(0.0, city.height_m)},
                       static_cast<Timestamp>(rng.UniformInt(0, 86399)));
  }
  return stays;
}

struct LoadOutcome {
  std::vector<double> latencies;  // seconds, one per completed request
  uint64_t failures = 0;          // admitted requests that came back wrong
  uint64_t shed = 0;              // kUnavailable rejections (open loop)
  double wall_seconds = 0.0;
  double rebuild_seconds = 0.0;
  uint64_t completed = 0;
};

/// True when an admitted request's result is sane: completed OK, served
/// by a published generation, one unit slot per stay.
bool ResultOk(const serve::AnnotateResult& result) {
  return result.status.ok() && result.snapshot_version > 0 &&
         result.units.size() == result.stays.size();
}

/// `rebuild_seconds` is written only by this thread; callers read it
/// after joining.
void RunRebuildAt(serve::ServeService& service, double at_seconds,
                  std::atomic<uint64_t>* failures,
                  double* rebuild_seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(at_seconds));
  Stopwatch watch;
  auto rebuild_or = service.TriggerRebuild();
  if (!rebuild_or.ok()) {
    std::fprintf(stderr, "mid-run rebuild rejected: %s\n",
                 rebuild_or.status().ToString().c_str());
    failures->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  serve::RebuildResult result = std::move(rebuild_or).value().get();
  if (!result.status.ok()) {
    std::fprintf(stderr, "mid-run rebuild failed: %s\n",
                 result.status.ToString().c_str());
    failures->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  *rebuild_seconds = watch.ElapsedSeconds();
  std::printf("mid-run rebuild: published v%llu in %.2fs (%zu units, %zu "
              "patterns)\n",
              static_cast<unsigned long long>(result.version),
              *rebuild_seconds, result.num_units, result.num_patterns);
}

LoadOutcome RunClosedLoop(serve::ServeService& service,
                          const CityConfig& city, const LoadConfig& config,
                          bool with_rebuild = true) {
  LoadOutcome outcome;
  std::vector<std::vector<double>> latencies(config.clients);
  std::atomic<uint64_t> failures{0};

  Stopwatch wall;
  // Rebuild when clients are roughly mid-stream: after a fixed slice of
  // the expected run. The assertion is about overlap, not exact timing.
  // The sharded phase skips it — its rebuild is timed separately and a
  // megacity full rebuild would dwarf the annotation run.
  std::thread rebuild_thread;
  if (with_rebuild) {
    rebuild_thread = std::thread([&] {
      RunRebuildAt(service, 0.05, &failures, &outcome.rebuild_seconds);
    });
  }

  std::vector<std::thread> clients;
  clients.reserve(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      serve::RetryPolicy retry_policy;
      retry_policy.seed = 3000 + c;
      latencies[c].reserve(config.requests);
      for (size_t r = 0; r < config.requests; ++r) {
        std::vector<StayPoint> stays = MakeRequest(rng, city);
        // Latency is measured from enqueue: the watch restarts at each
        // submit attempt, so request generation and retry backoff sleeps
        // are excluded and the number is the server's queue+execute time.
        // (This shrank p50/p99 vs the pre-change baseline, which timed
        // from before request generation — not a server speedup.)
        Stopwatch watch;
        auto future_or = serve::RetryWithBackoff(
            retry_policy, r, [&] {
              watch = Stopwatch();
              return service.AnnotateStayPoints(stays);
            });
        if (!future_or.ok()) {
          // Closed loop never outruns the admission budget; a rejection
          // that survives the retry budget is a failure, not shedding.
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        serve::AnnotateResult result = std::move(future_or).value().get();
        if (!ResultOk(result)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        latencies[c].push_back(watch.ElapsedSeconds());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  if (rebuild_thread.joinable()) rebuild_thread.join();
  outcome.wall_seconds = wall.ElapsedSeconds();
  outcome.failures = failures.load();
  for (const std::vector<double>& per_client : latencies) {
    outcome.latencies.insert(outcome.latencies.end(), per_client.begin(),
                             per_client.end());
  }
  outcome.completed = outcome.latencies.size();
  return outcome;
}

LoadOutcome RunOpenLoop(serve::ServeService& service, const CityConfig& city,
                        const LoadConfig& config) {
  LoadOutcome outcome;
  Rng rng(2000);
  std::atomic<uint64_t> failures{0};
  struct InFlight {
    std::chrono::steady_clock::time_point issued;
    std::future<serve::AnnotateResult> future;
  };

  // The collector drains futures in issue order concurrently with the
  // pacer, stamping each latency the moment its future resolves (the
  // batcher is FIFO, so the front future always completes first).
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<InFlight> in_flight;
  bool pacer_done = false;
  std::thread collector([&] {
    for (;;) {
      InFlight request;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !in_flight.empty() || pacer_done; });
        if (in_flight.empty()) return;
        request = std::move(in_flight.front());
        in_flight.pop_front();
      }
      serve::AnnotateResult result = request.future.get();
      auto now = std::chrono::steady_clock::now();
      if (!ResultOk(result)) {
        failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      outcome.latencies.push_back(
          std::chrono::duration<double>(now - request.issued).count());
    }
  });

  Stopwatch wall;
  std::thread rebuild_thread([&] {
    RunRebuildAt(service, config.duration_s / 2.0, &failures,
                 &outcome.rebuild_seconds);
  });

  // Fixed-interval pacing: request k is due at k/qps regardless of how
  // the server is doing (the defining property of an open loop).
  auto start = std::chrono::steady_clock::now();
  double interval = 1.0 / config.qps;
  for (size_t k = 0; wall.ElapsedSeconds() < config.duration_s; ++k) {
    auto due = start + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(k * interval));
    std::this_thread::sleep_until(due);
    auto future_or = service.AnnotateStayPoints(MakeRequest(rng, city));
    if (!future_or.ok()) {
      outcome.shed += 1;  // explicit kUnavailable is the designed behavior
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      in_flight.push_back({std::chrono::steady_clock::now(),
                           std::move(future_or).value()});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    pacer_done = true;
  }
  cv.notify_all();
  collector.join();
  rebuild_thread.join();
  outcome.wall_seconds = wall.ElapsedSeconds();
  outcome.completed = outcome.latencies.size();
  outcome.failures = failures.load();
  return outcome;
}

/// Windowed closed loop over the framed protocol: each connection keeps
/// `inflight` pipelined annotate frames outstanding and refills the
/// window half at a time so one write(2) carries many frames. Latency is
/// per-frame from its send to its response (responses arrive in
/// completion order; request_id matches them back).
LoadOutcome RunNetClosedLoop(const std::string& host, uint16_t port,
                             const CityConfig& city,
                             const LoadConfig& config) {
  LoadOutcome outcome;
  std::vector<std::vector<double>> latencies(config.connections);
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> shed{0};

  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  for (size_t c = 0; c < config.connections; ++c) {
    workers.emplace_back([&, c] {
      auto client_or = serve::NetClient::Connect(host, port);
      if (!client_or.ok()) {
        std::fprintf(stderr, "connection %zu: %s\n", c,
                     client_or.status().ToString().c_str());
        failures.fetch_add(config.net_requests, std::memory_order_relaxed);
        return;
      }
      std::unique_ptr<serve::NetClient> client =
          std::move(client_or).value();
      Rng rng(1000 + c);
      const size_t total = config.net_requests;
      latencies[c].reserve(total);
      std::vector<std::chrono::steady_clock::time_point> sent(total);
      std::vector<uint8_t> buf;
      size_t next = 0;
      size_t done = 0;
      auto fill_window = [&](size_t target_outstanding) {
        buf.clear();
        while (next < total && next - done < target_outstanding) {
          serve::AppendAnnotateRequest(static_cast<uint32_t>(next), 0,
                                       MakeRequest(rng, city), &buf);
          sent[next] = std::chrono::steady_clock::now();
          ++next;
        }
        if (!buf.empty() && !client->Send(buf).ok()) {
          failures.fetch_add(total - done, std::memory_order_relaxed);
          done = next = total;
        }
      };
      fill_window(config.inflight);
      while (done < total) {
        auto response_or = client->ReadResponse();
        if (!response_or.ok()) {
          failures.fetch_add(total - done, std::memory_order_relaxed);
          break;
        }
        const serve::NetResponse& response = response_or.value();
        ++done;
        if (response.type == serve::FrameType::kAnnotateResp &&
            response.snapshot_version > 0 &&
            response.request_id < total) {
          latencies[c].push_back(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     sent[response.request_id])
                                     .count());
        } else if (response.type == serve::FrameType::kErrorResp &&
                   response.code == StatusCode::kUnavailable) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        // Refill half the window at a time: amortizes the write syscall
        // over inflight/2 frames instead of one write per response.
        if (next < total && next - done <= config.inflight / 2) {
          fill_window(config.inflight);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  outcome.wall_seconds = wall.ElapsedSeconds();
  outcome.failures = failures.load();
  outcome.shed = shed.load();
  for (const std::vector<double>& per_conn : latencies) {
    outcome.latencies.insert(outcome.latencies.end(), per_conn.begin(),
                             per_conn.end());
  }
  outcome.completed = outcome.latencies.size();
  return outcome;
}

/// Open loop over the framed protocol: per connection, a pacer thread
/// sends at qps/connections fixed intervals regardless of completions
/// and a reader thread drains responses — send timestamps cross threads
/// through a mutex-guarded map keyed by request_id.
LoadOutcome RunNetOpenLoop(const std::string& host, uint16_t port,
                           const CityConfig& city, const LoadConfig& config) {
  LoadOutcome outcome;
  std::vector<std::vector<double>> latencies(config.connections);
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> sent_total{0};

  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  for (size_t c = 0; c < config.connections; ++c) {
    workers.emplace_back([&, c] {
      auto client_or = serve::NetClient::Connect(host, port);
      if (!client_or.ok()) {
        std::fprintf(stderr, "connection %zu: %s\n", c,
                     client_or.status().ToString().c_str());
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::unique_ptr<serve::NetClient> client =
          std::move(client_or).value();
      std::mutex mutex;
      std::unordered_map<uint32_t, std::chrono::steady_clock::time_point>
          in_flight;
      std::atomic<bool> pacer_done{false};

      std::thread reader([&] {
        for (;;) {
          auto response_or = client->ReadResponse();
          if (!response_or.ok()) {
            // EOF after the pacer shut the write side is the clean end.
            if (!pacer_done.load(std::memory_order_acquire)) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
            return;
          }
          const serve::NetResponse& response = response_or.value();
          std::chrono::steady_clock::time_point issued;
          {
            std::lock_guard<std::mutex> lock(mutex);
            auto it = in_flight.find(response.request_id);
            if (it == in_flight.end()) {
              failures.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            issued = it->second;
            in_flight.erase(it);
          }
          if (response.type == serve::FrameType::kAnnotateResp &&
              response.snapshot_version > 0) {
            latencies[c].push_back(std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() -
                                       issued)
                                       .count());
          } else if (response.type == serve::FrameType::kErrorResp &&
                     response.code == StatusCode::kUnavailable) {
            shed.fetch_add(1, std::memory_order_relaxed);
          } else {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          bool drained;
          {
            std::lock_guard<std::mutex> lock(mutex);
            drained = in_flight.empty();
          }
          if (drained && pacer_done.load(std::memory_order_acquire)) return;
        }
      });

      Rng rng(4000 + c);
      double per_conn_qps =
          config.qps / static_cast<double>(config.connections);
      double interval = per_conn_qps > 0.0 ? 1.0 / per_conn_qps : 0.0;
      auto start = std::chrono::steady_clock::now();
      std::vector<uint8_t> buf;
      uint32_t id = 0;
      Stopwatch pacer_wall;
      while (pacer_wall.ElapsedSeconds() < config.duration_s) {
        auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(id * interval));
        std::this_thread::sleep_until(due);
        buf.clear();
        serve::AppendAnnotateRequest(id, 0, MakeRequest(rng, city), &buf);
        {
          std::lock_guard<std::mutex> lock(mutex);
          in_flight.emplace(id, std::chrono::steady_clock::now());
        }
        if (!client->Send(buf).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        sent_total.fetch_add(1, std::memory_order_relaxed);
        ++id;
      }
      pacer_done.store(true, std::memory_order_release);
      shutdown(client->fd(), SHUT_WR);  // reader sees EOF once drained
      reader.join();
    });
  }
  for (std::thread& t : workers) t.join();
  outcome.wall_seconds = wall.ElapsedSeconds();
  outcome.failures = failures.load();
  outcome.shed = shed.load();
  for (const std::vector<double>& per_conn : latencies) {
    outcome.latencies.insert(outcome.latencies.end(), per_conn.begin(),
                             per_conn.end());
  }
  outcome.completed = outcome.latencies.size();
  return outcome;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

/// The sharded phase (--shards K): monolithic snapshot build vs the tiled
/// shard::ShardedCsdBuild of the same city, a geo-routed closed-loop
/// annotation run against a ShardedSnapshotStore, and one single-tile
/// rebuild. The headline rate, shard_build_speedup =
/// monolithic_build / shard_rebuild, is the rebuild-turnaround win of
/// refreshing one tile instead of the whole city — it holds on one core,
/// where a tile is simply 1/K of the work; across cores the per-tile
/// pool tasks also overlap.
void RunShardedPhase(const LoadConfig& config,
                     std::vector<PipelineBenchRun>* runs,
                     uint64_t* total_failures) {
  CityConfig city_config;
  if (config.megacity) {
    city_config = MegacityConfig();
    city_config.num_pois = EnvSize("CSD_BENCH_POIS", city_config.num_pois);
  } else {
    city_config.num_pois = EnvSize("CSD_BENCH_POIS", 15000);
  }
  TripConfig trip_config;
  // Committed BENCH_serve.json baselines predate popularity-weighted
  // destinations; pin the uniform sampler so runs stay comparable.
  trip_config.uniform_destinations = true;
  trip_config.num_agents = EnvSize("CSD_BENCH_AGENTS", 2000);
  trip_config.num_days = static_cast<int>(EnvSize("CSD_BENCH_DAYS", 7));

  std::printf("\n== serve_load (sharded, K=%zu%s) ==\n", config.shards,
              config.megacity ? ", megacity" : "");
  Stopwatch setup_watch;
  SyntheticCity city = GenerateCity(city_config);
  TripDataset trips = GenerateTrips(city, trip_config);
  std::shared_ptr<const serve::ServeDataset> dataset =
      serve::MakeServeDataset(city.pois, trips.journeys);
  std::printf("setup: %zu POIs, %zu journeys in %.1fs\n", city.pois.size(),
              trips.journeys.size(), setup_watch.ElapsedSeconds());

  serve::SnapshotOptions snapshot_options;
  snapshot_options.miner.extraction.support_threshold = 50;
  snapshot_options.miner.extraction.temporal_constraint =
      60 * kSecondsPerMinute;
  snapshot_options.miner.extraction.density_threshold = 0.002;

  Stopwatch mono_watch;
  auto monolithic = std::make_shared<serve::CsdSnapshot>(
      dataset, snapshot_options,
      shard::PlanForCity(dataset->pois, 1, snapshot_options.miner.csd));
  double monolithic_seconds = mono_watch.ElapsedSeconds();
  size_t mono_units = monolithic->diagram().num_units();
  size_t mono_patterns = monolithic->patterns().size();
  std::printf("monolithic build: %zu units, %zu patterns in %.2fs\n",
              mono_units, mono_patterns, monolithic_seconds);
  monolithic.reset();  // the megacity city doesn't fit twice

  shard::ShardPlan plan = shard::PlanForCity(dataset->pois, config.shards,
                                             snapshot_options.miner.csd);
  Stopwatch shard_watch;
  auto sharded =
      std::make_shared<serve::CsdSnapshot>(dataset, snapshot_options, plan);
  double sharded_seconds = shard_watch.ElapsedSeconds();
  size_t num_patterns = sharded->patterns().size();
  std::printf("sharded build (%zux%zu tiles): %zu units, %zu patterns in "
              "%.2fs\n",
              plan.kx(), plan.ky(), sharded->diagram().num_units(),
              num_patterns, sharded_seconds);
  if (sharded->diagram().num_units() != mono_units ||
      num_patterns != mono_patterns) {
    std::fprintf(stderr,
                 "FAIL: sharded build diverged from monolithic "
                 "(%zu/%zu units, %zu/%zu patterns)\n",
                 sharded->diagram().num_units(), mono_units, num_patterns,
                 mono_patterns);
    *total_failures += 1;
  }

  serve::ShardedSnapshotStore store(config.shards);
  store.PublishAll(sharded);

  serve::ServeOptions options;
  options.snapshot = snapshot_options;
  options.batch.max_batch = 256;
  serve::ServeService service(&store, plan, options);

  // Single-tile rebuild: the operational unit of freshness in a sharded
  // deployment — here the lane's in-tile engine's first, full build.
  // Timed via the rebuild lane's own stopwatch (queue wait excluded — the
  // lane is idle here).
  double shard_rebuild_seconds = 0.0;
  auto rebuild_or = service.TriggerShardRebuild(0);
  if (!rebuild_or.ok()) {
    std::fprintf(stderr, "shard rebuild rejected: %s\n",
                 rebuild_or.status().ToString().c_str());
    *total_failures += 1;
  } else {
    serve::RebuildResult result = std::move(rebuild_or).value().get();
    if (!result.status.ok()) {
      std::fprintf(stderr, "shard rebuild failed: %s\n",
                   result.status.ToString().c_str());
      *total_failures += 1;
    } else {
      shard_rebuild_seconds = result.seconds;
      std::printf("shard 0 rebuild: v%llu in %.2fs\n",
                  static_cast<unsigned long long>(result.version),
                  shard_rebuild_seconds);
    }
  }

  LoadOutcome outcome =
      RunClosedLoop(service, city_config, config, /*with_rebuild=*/false);
  service.Shutdown();

  std::sort(outcome.latencies.begin(), outcome.latencies.end());
  double p50 = Percentile(outcome.latencies, 0.50);
  double p99 = Percentile(outcome.latencies, 0.99);
  double qps = outcome.wall_seconds > 0.0
                   ? static_cast<double>(outcome.completed) /
                         outcome.wall_seconds
                   : 0.0;
  double speedup = shard_rebuild_seconds > 0.0
                       ? monolithic_seconds / shard_rebuild_seconds
                       : 0.0;
  std::printf("\nsharded loop: %llu completed, %llu FAILED in %.2fs\n",
              static_cast<unsigned long long>(outcome.completed),
              static_cast<unsigned long long>(outcome.failures),
              outcome.wall_seconds);
  std::printf("latency: p50 %.3fms  p99 %.3fms\n", p50 * 1e3, p99 * 1e3);
  std::printf("throughput: %.0f requests/s\n", qps);
  std::printf("shard-build speedup: %.2fx (monolithic %.2fs / tile "
              "rebuild %.2fs)\n",
              speedup, monolithic_seconds, shard_rebuild_seconds);
  *total_failures += outcome.failures;

  PipelineBenchRun run;
  run.scale = config.shards;
  run.label = config.megacity ? "sharded_megacity" : "sharded";
  run.pois = city.pois.size();
  run.agents = trip_config.num_agents;
  run.journeys = trips.journeys.size();
  run.patterns = num_patterns;
  run.stages.push_back({"monolithic_build", monolithic_seconds, 0});
  run.stages.push_back({"sharded_build", sharded_seconds, 0});
  run.stages.push_back({"shard_rebuild", shard_rebuild_seconds, 0});
  run.stages.push_back({"sharded_p50", p50, 0});
  run.stages.push_back({"sharded_p99", p99, 0});
  run.rates.emplace_back("shard_build_speedup", speedup);
  run.rates.emplace_back("annotate_qps_sharded", qps);
  runs->push_back(std::move(run));
}

/// Clustered replay workload for the streaming phase: all itineraries in
/// one corner of the city, so the delta dirties ~one tile of the plan and
/// the incremental publish has a real advantage over a checkpoint.
ReplayConfig MakeStreamReplayConfig(const CityConfig& city_config) {
  ReplayConfig replay;
  replay.num_users = EnvSize("CSD_BENCH_STREAM_USERS", 64);
  replay.stops_per_user = 4;
  replay.region.Extend(Vec2{0.05 * city_config.width_m,
                            0.05 * city_config.height_m});
  replay.region.Extend(Vec2{0.35 * city_config.width_m,
                            0.35 * city_config.height_m});
  return replay;
}

/// The streaming phase (--stream): a sharded bootstrap snapshot, then a
/// clustered replay trace fed fix-by-fix through the StreamIngestor, one
/// incremental publish tick (dirty tiles only) and one forced full
/// checkpoint over the same accumulated state. The headline rate,
/// incremental_rebuild_speedup = checkpoint_seconds / incremental_seconds,
/// is the freshness win of republishing only what the delta touched. A
/// second replay wave then re-dirties the same tiles with warm in-tile
/// engines and time-decayed popularity; in_tile_rebuild_speedup = mean
/// engine Apply seconds per full tile stage / per in-tile absorb is the
/// further win of absorbing a delta into cached tile structure instead of
/// re-staging the tile.
void RunStreamPhase(const LoadConfig& config,
                    std::vector<PipelineBenchRun>* runs,
                    uint64_t* total_failures) {
  CityConfig city_config;
  city_config.num_pois = EnvSize("CSD_BENCH_POIS", 15000);
  TripConfig trip_config;
  trip_config.uniform_destinations = true;  // keep baselines comparable
  trip_config.num_agents = EnvSize("CSD_BENCH_AGENTS", 2000);
  trip_config.num_days = static_cast<int>(EnvSize("CSD_BENCH_DAYS", 7));
  const size_t shards = config.shards > 0 ? config.shards : 4;

  std::printf("\n== serve_load (stream, K=%zu) ==\n", shards);
  Stopwatch setup_watch;
  SyntheticCity city = GenerateCity(city_config);
  TripDataset trips = GenerateTrips(city, trip_config);
  std::shared_ptr<const serve::ServeDataset> dataset =
      serve::MakeServeDataset(city.pois, trips.journeys);

  serve::SnapshotOptions snapshot_options;
  snapshot_options.miner.extraction.support_threshold = 50;
  snapshot_options.miner.extraction.temporal_constraint =
      60 * kSecondsPerMinute;
  snapshot_options.miner.extraction.density_threshold = 0.002;
  // Decay on for the whole phase: every build weights stays by
  // 2^-(age/half-life) against the stream watermark, which is the regime
  // the in-tile engine's second-wave measurement below exercises.
  snapshot_options.miner.csd.decay.half_life_s = static_cast<double>(
      EnvSize("CSD_BENCH_STREAM_DECAY_HALF_LIFE_S", 86400));

  shard::ShardPlan plan = shard::PlanForCity(dataset->pois, shards,
                                             snapshot_options.miner.csd);
  auto bootstrap_snapshot =
      std::make_shared<serve::CsdSnapshot>(dataset, snapshot_options, plan);
  serve::ShardedSnapshotStore store(plan.num_shards());
  store.PublishAll(bootstrap_snapshot);
  serve::ServeOptions options;
  options.snapshot = snapshot_options;
  serve::ServeService service(&store, plan, options);
  std::printf("setup: %zu POIs, %zu journeys, bootstrap snapshot in %.1fs\n",
              city.pois.size(), trips.journeys.size(),
              setup_watch.ElapsedSeconds());

  ReplaySet replay = MakeReplaySet(city, MakeStreamReplayConfig(city_config));
  stream::StreamIngestor ingestor(&service, &store, plan, dataset);

  Stopwatch ingest_watch;
  for (const ReplayFix& rf : replay.stream) {
    Status folded = ingestor.IngestFixes(
        rf.user_id, std::span<const GpsPoint>(&rf.fix, 1));
    if (!folded.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   folded.ToString().c_str());
      *total_failures += 1;
      break;
    }
  }
  ingestor.FlushAll();
  double ingest_seconds = ingest_watch.ElapsedSeconds();
  double fixes_per_sec =
      ingest_seconds > 0.0
          ? static_cast<double>(replay.stream.size()) / ingest_seconds
          : 0.0;
  std::printf("ingest: %zu fixes -> %llu stays in %.2fs (%.0f fixes/s, "
              "%zu pending)\n",
              replay.stream.size(),
              static_cast<unsigned long long>(ingestor.stays_emitted()),
              ingest_seconds, fixes_per_sec, ingestor.pending_stays());
  if (ingestor.stays_emitted() == 0) {
    std::fprintf(stderr, "FAIL: replay produced no stay points\n");
    *total_failures += 1;
  }

  stream::RebuildTickReport incremental = ingestor.PublishTick();
  if (!incremental.status.ok()) {
    std::fprintf(stderr, "incremental publish failed: %s\n",
                 incremental.status.ToString().c_str());
    *total_failures += 1;
  }
  std::printf("incremental publish: v%llu, %zu stays over %zu dirty "
              "tiles in %.2fs\n",
              static_cast<unsigned long long>(incremental.version),
              incremental.stays_folded, incremental.shards_rebuilt,
              incremental.seconds);

  // The checkpoint republishes the identical accumulated state through
  // the full plan build, so the two timings divide cleanly.
  stream::RebuildTickReport checkpoint =
      ingestor.PublishTick(/*force_checkpoint=*/true);
  if (!checkpoint.status.ok()) {
    std::fprintf(stderr, "checkpoint publish failed: %s\n",
                 checkpoint.status.ToString().c_str());
    *total_failures += 1;
  }
  double speedup = incremental.seconds > 0.0
                       ? checkpoint.seconds / incremental.seconds
                       : 0.0;
  std::printf("checkpoint publish: v%llu in %.2fs "
              "(incremental speedup %.2fx)\n",
              static_cast<unsigned long long>(checkpoint.version),
              checkpoint.seconds, speedup);

  // Second wave, a day later: the first incremental tick seeded each
  // dirty tile's in-tile engine with a fallback full stage, so this
  // tick's comparable delta (same users, same corner) is absorbed
  // in-tile — dirty ε-components re-seeded, clean clusters and merge
  // groups spliced from cache, popularity re-decayed to the new
  // watermark. The headline divides the warm absorb into the cold
  // full-stage tick over the same tiles.
  ReplayConfig wave2_config = MakeStreamReplayConfig(city_config);
  wave2_config.seed = 4321;
  wave2_config.start_time = 24 * 3600;
  // A small late delta — a handful of commuters in one neighborhood —
  // which is the absorb regime: it touches a few ε∪merge components, and
  // the rest of the tile splices from cache. (Wave 1's region-wide flood
  // would trip the churn fallback by design.)
  wave2_config.num_users = EnvSize("CSD_BENCH_STREAM_WAVE2_USERS", 4);
  wave2_config.stops_per_user = 2;
  wave2_config.region = BoundingBox{};
  wave2_config.region.Extend(Vec2{0.05 * city_config.width_m,
                                  0.05 * city_config.height_m});
  wave2_config.region.Extend(Vec2{0.12 * city_config.width_m,
                                  0.12 * city_config.height_m});
  ReplaySet wave2 = MakeReplaySet(city, wave2_config);
  for (const ReplayFix& rf : wave2.stream) {
    Status folded = ingestor.IngestFixes(
        rf.user_id, std::span<const GpsPoint>(&rf.fix, 1));
    if (!folded.ok()) {
      std::fprintf(stderr, "wave-2 ingest failed: %s\n",
                   folded.ToString().c_str());
      *total_failures += 1;
      break;
    }
  }
  ingestor.FlushAll();
  stream::RebuildTickReport in_tile = ingestor.PublishTick();
  if (!in_tile.status.ok()) {
    std::fprintf(stderr, "in-tile publish failed: %s\n",
                 in_tile.status.ToString().c_str());
    *total_failures += 1;
  }
  if (in_tile.shards_rebuilt > 0 && in_tile.shards_in_tile == 0) {
    std::fprintf(stderr,
                 "FAIL: warm second-wave tick fell back to full tile "
                 "stages on every shard\n");
    *total_failures += 1;
  }
  // The headline compares the stage work the in-tile path changes:
  // average engine seconds per full tile stage (wave 1's cold builds)
  // over average engine seconds per in-tile absorb (this tick), summed
  // over both shard-rebuild ticks (the checkpoint runs no engine).
  size_t fallbacks = incremental.shards_fallback + in_tile.shards_fallback;
  size_t absorbs = incremental.shards_in_tile + in_tile.shards_in_tile;
  double fallback_seconds =
      incremental.fallback_apply_seconds + in_tile.fallback_apply_seconds;
  double absorb_seconds =
      incremental.in_tile_apply_seconds + in_tile.in_tile_apply_seconds;
  double in_tile_speedup =
      absorbs > 0 && fallbacks > 0 && absorb_seconds > 0.0
          ? (fallback_seconds / static_cast<double>(fallbacks)) /
                (absorb_seconds / static_cast<double>(absorbs))
          : 0.0;
  std::printf("in-tile publish: v%llu, %zu tiles (%zu in-tile / %zu "
              "fallback) in %.2fs (stage %.0f us full vs %.0f us absorb "
              "-> in-tile speedup %.2fx, decay half-life %.0fs)\n",
              static_cast<unsigned long long>(in_tile.version),
              in_tile.shards_rebuilt, in_tile.shards_in_tile,
              in_tile.shards_fallback, in_tile.seconds,
              fallbacks > 0
                  ? 1e6 * fallback_seconds / static_cast<double>(fallbacks)
                  : 0.0,
              absorbs > 0
                  ? 1e6 * absorb_seconds / static_cast<double>(absorbs)
                  : 0.0,
              in_tile_speedup,
              snapshot_options.miner.csd.decay.half_life_s);
  service.Shutdown();

  PipelineBenchRun run;
  run.scale = shards;
  run.label = "stream";
  run.pois = city.pois.size();
  run.agents = trip_config.num_agents;
  run.journeys = trips.journeys.size();
  run.patterns = bootstrap_snapshot->patterns().size();
  run.stages.push_back({"stream_ingest", ingest_seconds, 0});
  run.stages.push_back({"incremental_publish", incremental.seconds, 0});
  run.stages.push_back({"checkpoint_publish", checkpoint.seconds, 0});
  run.stages.push_back({"in_tile_publish", in_tile.seconds, 0});
  run.rates.emplace_back("ingest_fixes_per_sec", fixes_per_sec);
  run.rates.emplace_back("incremental_rebuild_speedup", speedup);
  run.rates.emplace_back("in_tile_rebuild_speedup", in_tile_speedup);
  runs->push_back(std::move(run));
}

/// The mixed request stream (--connect + --mixed N): N deterministic
/// frames — annotate, journey, query-unit and stats in a fixed mix — plus
/// one rebuild at N/2, pipelined over one connection in windows of
/// `inflight`. Every frame must be answered; the ok/err tally and the
/// error codes are printed for CI's serve-smoke to assert on, and a
/// transport failure (a frame never answered) is the only nonzero exit.
int RunNetMixed(const std::string& host, uint16_t port,
                const CityConfig& city, const LoadConfig& config) {
  std::vector<std::vector<uint8_t>> frames;
  Rng rng(99);
  auto next_id = [&frames] { return static_cast<uint32_t>(frames.size()); };
  for (size_t i = 0; i < config.mixed; ++i) {
    if (i == config.mixed / 2) {
      std::vector<uint8_t> rebuild;
      serve::AppendRebuildRequest(next_id(), &rebuild);
      frames.push_back(std::move(rebuild));
    }
    std::vector<uint8_t> frame;
    if (i % 64 == 63) {
      serve::AppendStatsRequest(next_id(), &frame);
    } else if (i % 17 == 5) {
      serve::AppendQueryUnitRequest(
          next_id(), static_cast<uint32_t>(rng.UniformInt(0, 400)), &frame);
    } else if (i % 11 == 3) {
      StayPoint pickup(Vec2{rng.Uniform(0.0, city.width_m),
                            rng.Uniform(0.0, city.height_m)},
                       static_cast<Timestamp>(rng.UniformInt(0, 86399)));
      StayPoint dropoff(Vec2{rng.Uniform(0.0, city.width_m),
                             rng.Uniform(0.0, city.height_m)},
                        static_cast<Timestamp>(rng.UniformInt(0, 86399)));
      serve::AppendJourneyRequest(next_id(), 0, pickup, dropoff, &frame);
    } else {
      serve::AppendAnnotateRequest(next_id(), 0, MakeRequest(rng, city),
                                   &frame);
    }
    frames.push_back(std::move(frame));
  }

  auto client_or = serve::NetClient::Connect(host, port);
  if (!client_or.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<serve::NetClient> client = std::move(client_or).value();
  std::printf("== serve_load (mixed, %s) ==\n", config.connect.c_str());

  uint64_t ok = 0;
  uint64_t err = 0;
  std::map<std::string, uint64_t> err_codes;
  size_t sent = 0;
  size_t answered = 0;
  Stopwatch wall;
  std::vector<uint8_t> buf;
  while (answered < frames.size()) {
    buf.clear();
    while (sent < frames.size() && sent - answered < config.inflight) {
      buf.insert(buf.end(), frames[sent].begin(), frames[sent].end());
      ++sent;
    }
    if (!buf.empty() && !client->Send(buf).ok()) break;
    auto response_or = client->ReadResponse();
    if (!response_or.ok()) {
      std::fprintf(stderr, "read: %s\n",
                   response_or.status().ToString().c_str());
      break;
    }
    ++answered;
    const serve::NetResponse& response = response_or.value();
    if (response.type == serve::FrameType::kErrorResp) {
      ++err;
      ++err_codes[StatusCodeToString(response.code)];
      std::fprintf(stderr, "request %u: %s\n", response.request_id,
                   response.message.c_str());
    } else {
      ++ok;
    }
  }
  std::printf("mixed: %zu frames, %llu ok, %llu err in %.2fs\n",
              frames.size(), static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(err), wall.ElapsedSeconds());
  std::string codes;
  for (const auto& [code, n] : err_codes) {
    codes += StrFormat(" %s=%llu", code.c_str(),
                       static_cast<unsigned long long>(n));
  }
  std::printf("err codes:%s\n", codes.empty() ? " none" : codes.c_str());
  return answered == frames.size() ? 0 : 1;
}

/// The net ingest client (--connect + --ingest-fixes): streams a replayed
/// trace as INGEST_FIX frames against an external `csdctl serve --listen
/// --stream`, which is what CI's stream-smoke drives. Frames carry runs
/// of consecutive same-user fixes and are pipelined in windows.
int RunNetIngest(const std::string& host, uint16_t port,
                 const LoadConfig& config) {
  CityConfig city_config;
  city_config.num_pois = EnvSize("CSD_BENCH_POIS", 15000);
  SyntheticCity city = GenerateCity(city_config);
  ReplayConfig replay_config = MakeStreamReplayConfig(city_config);
  // Enough stops that the merged stream covers the requested fix count
  // (a dwell alone is ~dwell_s / sample_interval fixes per stop).
  size_t fixes_per_stop = static_cast<size_t>(
      std::max<Timestamp>(1, replay_config.dwell_s /
                                 replay_config.trace.sample_interval_s));
  replay_config.stops_per_user =
      config.ingest_fixes /
          (replay_config.num_users * fixes_per_stop) +
      1;
  ReplaySet replay = MakeReplaySet(city, replay_config);
  size_t total = std::min(config.ingest_fixes, replay.stream.size());

  auto client_or = serve::NetClient::Connect(host, port);
  if (!client_or.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<serve::NetClient> client = std::move(client_or).value();

  std::printf("== serve_load (net ingest, %s) ==\n", config.connect.c_str());
  constexpr size_t kFixesPerFrame = 32;
  constexpr size_t kFramesPerWindow = 32;
  uint64_t failures = 0;
  uint64_t frames_acked = 0;
  uint32_t request_id = 0;
  size_t window = 0;
  std::vector<uint8_t> buf;
  std::vector<GpsPoint> batch;
  uint32_t batch_user = 0;
  Stopwatch wall;
  auto drain = [&]() {
    for (; window > 0; --window) {
      auto response_or = client->ReadResponse();
      if (!response_or.ok()) {
        std::fprintf(stderr, "read: %s\n",
                     response_or.status().ToString().c_str());
        failures += window;
        window = 1;  // loop decrement exits
        continue;
      }
      if (response_or.value().type == serve::FrameType::kErrorResp) {
        std::fprintf(stderr, "ingest rejected: %s\n",
                     response_or.value().message.c_str());
        ++failures;
      } else {
        ++frames_acked;
      }
    }
  };
  auto flush_batch = [&]() {
    if (batch.empty()) return;
    serve::AppendIngestFixRequest(request_id++, batch_user, batch, &buf);
    batch.clear();
    ++window;
    if (window >= kFramesPerWindow) {
      if (!client->Send(buf).ok()) {
        std::fprintf(stderr, "send failed\n");
        failures += window;
        window = 0;
      }
      buf.clear();
      drain();
    }
  };
  for (size_t i = 0; i < total; ++i) {
    const ReplayFix& rf = replay.stream[i];
    if (!batch.empty() &&
        (rf.user_id != batch_user || batch.size() >= kFixesPerFrame)) {
      flush_batch();
    }
    batch_user = rf.user_id;
    batch.push_back(rf.fix);
  }
  flush_batch();
  if (!buf.empty() && !client->Send(buf).ok()) {
    std::fprintf(stderr, "send failed\n");
    failures += window;
    window = 0;
  }
  drain();
  double seconds = wall.ElapsedSeconds();
  double fixes_per_sec =
      seconds > 0.0 ? static_cast<double>(total) / seconds : 0.0;
  std::printf("net ingest: %zu fixes in %llu frames acked, %llu FAILED "
              "in %.2fs\n",
              total, static_cast<unsigned long long>(frames_acked),
              static_cast<unsigned long long>(failures), seconds);
  std::printf("throughput: %.0f fixes/s\n", fixes_per_sec);
  return failures == 0 ? 0 : 1;
}

/// Paced INGEST_FIX sender for one scenario phase: consumes the shared
/// replay stream from `*cursor` (phases continue where the previous one
/// stopped, keeping each user's fixes time-ordered), batching runs of
/// same-user fixes into 32-fix frames and keeping a pipelined window
/// outstanding. The budget `sent <= rate * elapsed` holds the target
/// fixes/s without a per-fix sleep.
void RunScenarioIngest(const std::string& host, uint16_t port,
                       const std::vector<ReplayFix>& stream, size_t* cursor,
                       double rate, double duration_s, uint64_t* failures,
                       size_t* fixes_sent) {
  auto client_or = serve::NetClient::Connect(host, port);
  if (!client_or.ok()) {
    std::fprintf(stderr, "ingest connect: %s\n",
                 client_or.status().ToString().c_str());
    *failures += 1;
    return;
  }
  std::unique_ptr<serve::NetClient> client = std::move(client_or).value();
  constexpr size_t kFixesPerFrame = 32;
  constexpr size_t kFramesPerWindow = 16;
  size_t window = 0;
  uint32_t request_id = 0;
  std::vector<uint8_t> buf;
  std::vector<GpsPoint> batch;
  uint32_t batch_user = 0;
  auto drain = [&]() {
    for (; window > 0; --window) {
      auto response_or = client->ReadResponse();
      if (!response_or.ok()) {
        std::fprintf(stderr, "ingest read: %s\n",
                     response_or.status().ToString().c_str());
        *failures += window;
        window = 1;  // loop decrement exits
        continue;
      }
      if (response_or.value().type == serve::FrameType::kErrorResp) {
        std::fprintf(stderr, "ingest rejected: %s\n",
                     response_or.value().message.c_str());
        *failures += 1;
      }
    }
  };
  auto flush_batch = [&]() {
    if (batch.empty()) return;
    serve::AppendIngestFixRequest(request_id++, batch_user, batch, &buf);
    batch.clear();
    ++window;
    if (window >= kFramesPerWindow) {
      if (!client->Send(buf).ok()) {
        std::fprintf(stderr, "ingest send failed\n");
        *failures += window;
        window = 0;
      }
      buf.clear();
      drain();
    }
  };
  Stopwatch wall;
  size_t sent = 0;
  while (wall.ElapsedSeconds() < duration_s && *cursor < stream.size()) {
    size_t budget =
        static_cast<size_t>(rate * std::min(wall.ElapsedSeconds(),
                                            duration_s));
    bool advanced = false;
    while (sent < budget && *cursor < stream.size()) {
      const ReplayFix& rf = stream[(*cursor)++];
      if (!batch.empty() &&
          (rf.user_id != batch_user || batch.size() >= kFixesPerFrame)) {
        flush_batch();
      }
      batch_user = rf.user_id;
      batch.push_back(rf.fix);
      ++sent;
      advanced = true;
    }
    if (!advanced) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  flush_batch();
  if (!buf.empty() && !client->Send(buf).ok()) {
    std::fprintf(stderr, "ingest send failed\n");
    *failures += window;
    window = 0;
  }
  drain();
  *fixes_sent = sent;
}

/// The scenario phase driver shared by the in-process and --connect
/// modes: walks the pack's load schedule against a live server at
/// (host, port), pacing annotate traffic open-loop and ingest traffic on
/// a sidecar connection per the phase envelope, arming chaos windows
/// through `timeline` when this process owns the failpoint registry
/// (in-process mode; with --connect the server's own timeline does it).
/// Appends per-phase stages/rates to `run`.
void DriveScenarioPhases(const scenario::ScenarioPack& pack,
                         const std::string& host, uint16_t port,
                         const CityConfig& city_config,
                         const std::vector<ReplayFix>& replay_stream,
                         scenario::ChaosTimeline* timeline,
                         const LoadConfig& config, PipelineBenchRun* run,
                         uint64_t* total_failures, uint64_t* total_shed,
                         uint64_t* total_completed) {
  size_t ingest_cursor = 0;
  for (const scenario::LoadPhase& phase : pack.load) {
    if (timeline != nullptr) {
      Status armed = timeline->EnterPhase(phase.name);
      if (!armed.ok()) {
        std::fprintf(stderr, "chaos arm (%s): %s\n", phase.name.c_str(),
                     armed.ToString().c_str());
        *total_failures += 1;
      }
    }
    std::printf("\n-- phase %s: %.1fs @ %.0f qps annotate, %.0f fixes/s "
                "ingest%s --\n",
                phase.name.c_str(), phase.duration_s, phase.annotate_qps,
                phase.ingest_fixes_per_sec,
                (timeline != nullptr && !timeline->armed().empty())
                    ? " [chaos armed]"
                    : "");

    uint64_t ingest_failures = 0;
    size_t fixes_sent = 0;
    std::thread ingest;
    Stopwatch phase_watch;
    if (phase.ingest_fixes_per_sec > 0.0 && !replay_stream.empty()) {
      ingest = std::thread([&] {
        RunScenarioIngest(host, port, replay_stream, &ingest_cursor,
                          phase.ingest_fixes_per_sec, phase.duration_s,
                          &ingest_failures, &fixes_sent);
      });
    }
    LoadOutcome outcome;
    if (phase.annotate_qps > 0.0) {
      LoadConfig phase_config = config;
      phase_config.qps = phase.annotate_qps;
      phase_config.duration_s = phase.duration_s;
      outcome = RunNetOpenLoop(host, port, city_config, phase_config);
    } else {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(phase.duration_s));
    }
    if (ingest.joinable()) ingest.join();
    double phase_seconds = phase_watch.ElapsedSeconds();

    std::sort(outcome.latencies.begin(), outcome.latencies.end());
    double p50 = Percentile(outcome.latencies, 0.50);
    double p99 = Percentile(outcome.latencies, 0.99);
    double qps = outcome.wall_seconds > 0.0
                     ? static_cast<double>(outcome.completed) /
                           outcome.wall_seconds
                     : 0.0;
    double ingest_rate = phase_seconds > 0.0
                             ? static_cast<double>(fixes_sent) / phase_seconds
                             : 0.0;
    std::printf("phase %s: %llu completed, %llu shed, %llu FAILED, %zu "
                "fixes in %.2fs (p50 %.3fms p99 %.3fms, %.0f qps, %.0f "
                "fixes/s)\n",
                phase.name.c_str(),
                static_cast<unsigned long long>(outcome.completed),
                static_cast<unsigned long long>(outcome.shed),
                static_cast<unsigned long long>(outcome.failures +
                                                ingest_failures),
                fixes_sent, phase_seconds, p50 * 1e3, p99 * 1e3, qps,
                ingest_rate);

    if (phase.annotate_qps > 0.0) {
      run->stages.push_back({phase.name + "_p50", p50, 0});
      run->stages.push_back({phase.name + "_p99", p99, 0});
      run->rates.emplace_back(phase.name + "_annotate_qps", qps);
    }
    if (phase.ingest_fixes_per_sec > 0.0) {
      run->rates.emplace_back(phase.name + "_ingest_fixes_per_sec",
                              ingest_rate);
    }
    *total_failures += outcome.failures + ingest_failures;
    *total_shed += outcome.shed;
    *total_completed += outcome.completed;
  }
  if (timeline != nullptr) timeline->Finish();
}

/// The scenario phase (--scenario NAME): the pack's city + trips are
/// generated, its load schedule is driven phase by phase (open-loop
/// annotate + paced INGEST_FIX sidecar), its chaos windows arm per
/// phase, and one run labelled "scenario:NAME" with per-phase
/// p50/p99/annotate_qps/ingest_fixes_per_sec lands in the trajectory.
/// Without --connect the pack is hosted in-process (sharded store,
/// streaming ingestor, loopback NetServer); with --connect an external
/// `csdctl serve --listen --stream --scenario NAME` owns the dataset and
/// the chaos timeline and this process only paces traffic.
int RunScenario(const LoadConfig& config, const std::string& host,
                uint16_t port) {
  auto pack_or = scenario::GetScenario(config.scenario);
  if (!pack_or.ok()) {
    std::fprintf(stderr, "%s\n", pack_or.status().ToString().c_str());
    return 2;
  }
  scenario::ScenarioPack pack = std::move(pack_or).value();
  // The usual bench env knobs shrink the pack for CI boxes.
  pack.city.num_pois = EnvSize("CSD_BENCH_POIS", pack.city.num_pois);
  pack.trips.num_agents = EnvSize("CSD_BENCH_AGENTS", pack.trips.num_agents);
  pack.trips.num_days = static_cast<int>(
      EnvSize("CSD_BENCH_DAYS", static_cast<size_t>(pack.trips.num_days)));

  std::printf("== serve_load (scenario %s%s%s) ==\n", pack.name.c_str(),
              config.connect.empty() ? "" : ", connect ",
              config.connect.c_str());
  std::printf("%s", scenario::DescribeSchedule(pack).c_str());

  // Size the replay so the schedule's ingest envelope never runs dry.
  double total_ingest_fixes = 0.0;
  for (const scenario::LoadPhase& phase : pack.load) {
    total_ingest_fixes += phase.ingest_fixes_per_sec * phase.duration_s;
  }
  if (total_ingest_fixes > 0.0) {
    size_t fixes_per_stop = static_cast<size_t>(
        std::max<Timestamp>(1, pack.replay.dwell_s /
                                   pack.replay.trace.sample_interval_s));
    pack.replay.stops_per_user =
        static_cast<size_t>(total_ingest_fixes * 1.5) /
            std::max<size_t>(1, pack.replay.num_users * fixes_per_stop) +
        1;
  }

  Stopwatch setup_watch;
  SyntheticCity city = GenerateCity(pack.city);
  ReplaySet replay;
  if (total_ingest_fixes > 0.0) {
    replay = MakeReplaySet(city, pack.replay);
  }

  uint64_t total_failures = 0;
  uint64_t total_shed = 0;
  uint64_t total_completed = 0;
  PipelineBenchRun run;
  run.scale = static_cast<double>(pack.serve_shards);
  run.label = "scenario:" + pack.name;
  run.pois = city.pois.size();
  run.agents = pack.trips.num_agents;

  Stopwatch scenario_wall;
  if (!config.connect.empty()) {
    // External server: it owns the dataset and (when started with
    // --scenario) the chaos timeline; this process only paces traffic.
    if (!pack.chaos.empty()) {
      std::fprintf(stderr,
                   "note: chaos windows are armed by the server "
                   "(csdctl serve --scenario %s), not this client\n",
                   pack.name.c_str());
    }
    std::printf("setup: %zu POIs, %zu replay fixes in %.1fs\n",
                city.pois.size(), replay.stream.size(),
                setup_watch.ElapsedSeconds());
    DriveScenarioPhases(pack, host, port, city.config, replay.stream,
                        /*timeline=*/nullptr, config, &run, &total_failures,
                        &total_shed, &total_completed);
  } else {
    // In-process hosting: the full csdctl-serve stack — sharded store,
    // streaming ingestor behind the INGEST_FIX frame, publish ticker,
    // epoll server on an ephemeral loopback port — plus the pack's
    // chaos timeline against this process's failpoint registry.
    TripDataset trips = GenerateTrips(city, pack.trips);
    std::shared_ptr<const serve::ServeDataset> dataset =
        serve::MakeServeDataset(city.pois, trips.journeys);
    serve::SnapshotOptions snapshot_options;
    snapshot_options.miner.extraction.support_threshold = 50;
    snapshot_options.miner.extraction.temporal_constraint =
        60 * kSecondsPerMinute;
    snapshot_options.miner.extraction.density_threshold = 0.002;
    shard::ShardPlan plan = shard::PlanForCity(
        dataset->pois, pack.serve_shards, snapshot_options.miner.csd);
    auto snapshot =
        std::make_shared<serve::CsdSnapshot>(dataset, snapshot_options, plan);
    serve::ShardedSnapshotStore store(plan.num_shards());
    store.PublishAll(snapshot);
    serve::ServeOptions options;
    options.snapshot = snapshot_options;
    options.batch.max_batch = 256;
    serve::ServeService service(&store, plan, options);
    run.journeys = trips.journeys.size();
    run.patterns = snapshot->patterns().size();
    std::printf("setup: %zu POIs, %zu journeys (%zu taxi / %zu transit / "
                "%zu walked), %zu replay fixes, snapshot in %.1fs\n",
                city.pois.size(), trips.journeys.size(), trips.taxi_trips,
                trips.transit_trips, trips.walked_trips,
                replay.stream.size(), setup_watch.ElapsedSeconds());

    std::optional<stream::StreamIngestor> ingestor;
    std::thread ticker;
    std::atomic<bool> ticker_stop{false};
    serve::NetServerOptions net_options;  // loopback, ephemeral port
    if (pack.HasIngest()) {
      ingestor.emplace(&service, &store, plan, dataset);
      net_options.ingest_handler =
          [&ingestor](uint32_t user_id, std::span<const GpsPoint> fixes) {
            return ingestor->IngestFixes(user_id, fixes);
          };
      ticker = std::thread([&ingestor, &ticker_stop] {
        while (!ticker_stop.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          if (ticker_stop.load(std::memory_order_acquire)) break;
          if (ingestor->pending_stays() > 0) ingestor->PublishTick();
        }
      });
    }
    auto server_or = serve::NetServer::Start(&service, net_options);
    if (!server_or.ok()) {
      std::fprintf(stderr, "net server: %s\n",
                   server_or.status().ToString().c_str());
      if (ticker.joinable()) {
        ticker_stop.store(true, std::memory_order_release);
        ticker.join();
      }
      service.Shutdown();
      return 1;
    }
    std::unique_ptr<serve::NetServer> server = std::move(server_or).value();

    scenario::ChaosTimeline timeline(pack);
    DriveScenarioPhases(pack, "127.0.0.1", server->port(), city.config,
                        replay.stream, &timeline, config, &run,
                        &total_failures, &total_shed, &total_completed);

    server->Shutdown();
    if (ticker.joinable()) {
      ticker_stop.store(true, std::memory_order_release);
      ticker.join();
    }
    if (ingestor) {
      std::printf("stream: %llu fixes ingested, %llu stays, %llu late "
                  "dropped, %zu pending\n",
                  static_cast<unsigned long long>(ingestor->fixes_ingested()),
                  static_cast<unsigned long long>(ingestor->stays_emitted()),
                  static_cast<unsigned long long>(ingestor->late_dropped()),
                  ingestor->pending_stays());
    }
    service.Shutdown();
  }

  std::printf("\nscenario %s: %llu completed, %llu shed, %llu FAILED in "
              "%.2fs\n",
              pack.name.c_str(),
              static_cast<unsigned long long>(total_completed),
              static_cast<unsigned long long>(total_shed),
              static_cast<unsigned long long>(total_failures),
              scenario_wall.ElapsedSeconds());

  const char* env_path = std::getenv("CSD_BENCH_JSON");
  std::string json_path = !config.json_path.empty() ? config.json_path
                          : env_path != nullptr     ? env_path
                                                    : "BENCH_serve.json";
  std::vector<PipelineBenchRun> runs;
  runs.push_back(std::move(run));
  if (!WritePipelineJson(json_path, "serve_load", runs)) return 1;
  std::printf("trajectory written to %s\n", json_path.c_str());
  return total_failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  LoadConfig config;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag '%s' is missing its value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = value("--clients")) {
      config.clients = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--requests")) {
      config.requests = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--qps")) {
      config.qps = std::atof(v);
    } else if (const char* v = value("--duration-s")) {
      config.duration_s = std::atof(v);
    } else if (const char* v = value("--mixed")) {
      config.mixed = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--json")) {
      config.json_path = v;
    } else if (std::strcmp(argv[i], "--net") == 0) {
      config.net = true;
    } else if (const char* v = value("--connect")) {
      config.connect = v;
    } else if (const char* v = value("--connections")) {
      config.connections = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--inflight")) {
      config.inflight = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--net-requests")) {
      config.net_requests = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--shards")) {
      config.shards = static_cast<size_t>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--megacity") == 0) {
      config.megacity = true;
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      config.stream = true;
    } else if (const char* v = value("--ingest-fixes")) {
      config.ingest_fixes = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--scenario")) {
      config.scenario = v;
    } else if (std::strcmp(argv[i], "--list-scenarios") == 0) {
      config.list_scenarios = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf("%s", kUsage);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n%s", argv[i], kUsage);
      return 2;
    }
  }

  if (config.list_scenarios) {
    std::printf("%s", scenario::ListScenariosText().c_str());
    return 0;
  }
  std::string host;
  uint16_t port = 0;
  if (!config.connect.empty()) {
    auto addr_or = serve::ParseHostPort("--connect", config.connect);
    if (!addr_or.ok()) {
      std::fprintf(stderr, "%s\n", addr_or.status().ToString().c_str());
      return 2;
    }
    std::tie(host, port) = std::move(addr_or).value();
  } else if (config.mixed > 0) {
    std::fprintf(stderr, "--mixed needs --connect HOST:PORT\n");
    return 2;
  }
  // --scenario runs a named pack's full phased timeline; with --connect
  // it paces an external `csdctl serve --scenario` server instead of
  // hosting the pack in-process.
  if (!config.scenario.empty()) {
    return RunScenario(config, host, port);
  }

  CityConfig city_config;
  city_config.num_pois = EnvSize("CSD_BENCH_POIS", 15000);

  // --connect drives a server someone else started (CI's serve-smoke
  // against `csdctl serve --listen`): no local dataset or service.
  if (!config.connect.empty()) {
    if (config.ingest_fixes > 0) {
      return RunNetIngest(host, port, config);
    }
    if (config.mixed > 0) {
      return RunNetMixed(host, port, city_config, config);
    }
    std::printf("== serve_load (net, %s) ==\n", config.connect.c_str());
    LoadOutcome outcome =
        config.qps > 0.0
            ? RunNetOpenLoop(host, port, city_config, config)
            : RunNetClosedLoop(host, port, city_config, config);
    std::sort(outcome.latencies.begin(), outcome.latencies.end());
    double achieved = outcome.wall_seconds > 0.0
                          ? static_cast<double>(outcome.completed) /
                                outcome.wall_seconds
                          : 0.0;
    std::printf("net loop: %llu completed, %llu shed, %llu FAILED in "
                "%.2fs\n",
                static_cast<unsigned long long>(outcome.completed),
                static_cast<unsigned long long>(outcome.shed),
                static_cast<unsigned long long>(outcome.failures),
                outcome.wall_seconds);
    std::printf("latency: p50 %.3fms  p99 %.3fms\n",
                Percentile(outcome.latencies, 0.50) * 1e3,
                Percentile(outcome.latencies, 0.99) * 1e3);
    std::printf("throughput: %.0f requests/s\n", achieved);
    return outcome.failures == 0 ? 0 : 1;
  }

  // --stream is its own phase: it builds a sharded bootstrap and drives
  // the streaming layer directly, so the default K=1 service below never
  // spins up.
  if (config.stream) {
    std::vector<PipelineBenchRun> runs;
    uint64_t total_failures = 0;
    RunStreamPhase(config, &runs, &total_failures);
    const char* stream_env_path = std::getenv("CSD_BENCH_JSON");
    std::string stream_json_path =
        !config.json_path.empty() ? config.json_path
        : stream_env_path != nullptr ? stream_env_path
                                     : "BENCH_serve.json";
    if (!WritePipelineJson(stream_json_path, "serve_load", runs)) return 1;
    std::printf("trajectory written to %s\n", stream_json_path.c_str());
    return total_failures == 0 ? 0 : 1;
  }

  TripConfig trip_config;
  trip_config.uniform_destinations = true;  // keep baselines comparable
  trip_config.num_agents = EnvSize("CSD_BENCH_AGENTS", 2000);
  trip_config.num_days = static_cast<int>(EnvSize("CSD_BENCH_DAYS", 7));

  std::printf("== serve_load (K=1) ==\n");
  Stopwatch setup_watch;
  SyntheticCity city = GenerateCity(city_config);
  TripDataset trips = GenerateTrips(city, trip_config);
  std::shared_ptr<const serve::ServeDataset> dataset =
      serve::MakeServeDataset(city.pois, trips.journeys);

  serve::SnapshotOptions snapshot_options;
  snapshot_options.miner.extraction.support_threshold = 50;
  snapshot_options.miner.extraction.temporal_constraint =
      60 * kSecondsPerMinute;
  snapshot_options.miner.extraction.density_threshold = 0.002;

  // One shard lane: the monolithic deployment (the snapshot build runs
  // the monolithic stage pass at K=1).
  Stopwatch build_watch;
  shard::ShardPlan plan =
      shard::PlanForCity(dataset->pois, 1, snapshot_options.miner.csd);
  auto initial =
      std::make_shared<serve::CsdSnapshot>(dataset, snapshot_options, plan);
  double snapshot_build_seconds = build_watch.ElapsedSeconds();
  serve::ShardedSnapshotStore store(plan.num_shards());
  store.PublishAll(initial);

  serve::ServeOptions options;
  options.snapshot = snapshot_options;
  // The net phase keeps hundreds of frames in flight, so let batches
  // grow to match; the future-based loops never reach this ceiling.
  options.batch.max_batch = 256;
  serve::ServeService service(&store, plan, options);
  std::printf("setup: %zu POIs, %zu journeys, snapshot v1 (%zu units, %zu "
              "patterns) in %.2fs\n",
              city.pois.size(), trips.journeys.size(),
              initial->diagram().num_units(), initial->patterns().size(),
              setup_watch.ElapsedSeconds());

  bool open_loop = config.qps > 0.0;
  bool run_inproc = !config.net;            // future-based loops
  bool run_net = config.net || !open_loop;  // net phase (default + --net)

  std::vector<PipelineBenchRun> runs;
  uint64_t total_failures = 0;
  // `json_label` keys the run in the trajectory: phases share the file,
  // and bench_diff matches (scale, label) so e.g. the net phase at 8
  // connections can never be compared against a closed-loop run that
  // happened to use 8 clients.
  auto record = [&](const char* label, const char* json_label,
                    LoadOutcome outcome, size_t scale, const char* p50_name,
                    const char* p99_name, const char* qps_name) {
    std::sort(outcome.latencies.begin(), outcome.latencies.end());
    double p50 = Percentile(outcome.latencies, 0.50);
    double p90 = Percentile(outcome.latencies, 0.90);
    double p99 = Percentile(outcome.latencies, 0.99);
    double achieved_qps = outcome.wall_seconds > 0.0
                              ? static_cast<double>(outcome.completed) /
                                    outcome.wall_seconds
                              : 0.0;
    std::printf("\n%s: %llu completed, %llu shed, %llu FAILED in %.2fs\n",
                label, static_cast<unsigned long long>(outcome.completed),
                static_cast<unsigned long long>(outcome.shed),
                static_cast<unsigned long long>(outcome.failures),
                outcome.wall_seconds);
    std::printf("latency: p50 %.3fms  p90 %.3fms  p99 %.3fms\n", p50 * 1e3,
                p90 * 1e3, p99 * 1e3);
    std::printf("throughput: %.0f requests/s\n", achieved_qps);
    total_failures += outcome.failures;

    PipelineBenchRun run;
    run.scale = scale;
    run.label = json_label;
    run.pois = city.pois.size();
    run.agents = trip_config.num_agents;
    run.journeys = trips.journeys.size();
    run.patterns = initial->patterns().size();
    if (runs.empty()) {
      run.stages.push_back({"snapshot_build", snapshot_build_seconds, 0});
    }
    run.stages.push_back({p50_name, p50, 0});
    run.stages.push_back({p99_name, p99, 0});
    if (outcome.rebuild_seconds > 0.0) {
      run.stages.push_back({"rebuild", outcome.rebuild_seconds, 0});
    }
    run.rates.emplace_back(qps_name, achieved_qps);
    runs.push_back(std::move(run));
  };

  if (run_inproc) {
    LoadOutcome outcome = open_loop
                              ? RunOpenLoop(service, city_config, config)
                              : RunClosedLoop(service, city_config, config);
    record(open_loop ? "open loop" : "closed loop",
           open_loop ? "open" : "closed", std::move(outcome),
           open_loop ? static_cast<size_t>(config.qps) : config.clients,
           "annotate_p50", "annotate_p99", "annotate_qps");
  }

  if (run_net) {
    serve::NetServerOptions net_options;  // loopback, ephemeral port
    auto server_or = serve::NetServer::Start(&service, net_options);
    if (!server_or.ok()) {
      std::fprintf(stderr, "net server: %s\n",
                   server_or.status().ToString().c_str());
      service.Shutdown();
      return 1;
    }
    std::unique_ptr<serve::NetServer> server = std::move(server_or).value();
    bool net_open = open_loop && config.net;
    LoadOutcome outcome =
        net_open
            ? RunNetOpenLoop("127.0.0.1", server->port(), city_config,
                             config)
            : RunNetClosedLoop("127.0.0.1", server->port(), city_config,
                               config);
    server->Shutdown();
    record(net_open ? "net open loop" : "net closed loop",
           net_open ? "net_open" : "net_closed", std::move(outcome),
           config.connections, "net_p50", "net_p99", "annotate_qps_net");
  }
  service.Shutdown();

  if (config.shards > 0) {
    RunShardedPhase(config, &runs, &total_failures);
  }

  const char* env_path = std::getenv("CSD_BENCH_JSON");
  std::string json_path = !config.json_path.empty() ? config.json_path
                          : env_path != nullptr     ? env_path
                                                    : "BENCH_serve.json";
  if (!WritePipelineJson(json_path, "serve_load", runs)) return 1;
  std::printf("trajectory written to %s\n", json_path.c_str());

  return total_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace csd::bench

int main(int argc, char** argv) { return csd::bench::Main(argc, argv); }
