// csdctl — command-line front end for the City Semantic Diagram library.
//
//   csdctl generate  --out-pois pois.csv --out-trips trips.bin
//                    [--pois 15000] [--agents 2000] [--days 7] [--seed 7]
//   csdctl build-csd --pois pois.csv --trips trips.bin --out csd.bin
//                    [--r3sigma 100]
//   csdctl recognize --pois pois.csv --csd csd.bin --x <m> --y <m>
//   csdctl mine      --pois pois.csv --trips trips.bin
//                    [--recognizer csd|roi] [--extractor pm|splitter|sdbscan]
//                    [--sigma 50] [--delta-t-min 60] [--rho 0.002]
//                    [--closed 0|1] [--out patterns.csv]
//
//   csdctl analyze   --patterns patterns.csv
//   csdctl serve     --pois pois.csv --trips trips.bin --listen HOST:PORT
//                    [--loops 1] [--shards 1]
//                    [--max-batch 64] [--max-delay-us 1000]
//                    [--annotate-limit 1024] [--query-limit 256]
//                    [--sigma 50] [--delta-t-min 60] [--rho 0.002]
//                    [--closed 0|1] [--patterns 0|1]
//                    [--stream 1] [--stream-tick-ms 1000]
//                    [--stream-checkpoint-every N]
//                    [--stream-reorder-window-s W]
//                    [--stream-decay-half-life-s H]
//
// `csdctl <command> --help` lists the command's flags. Unknown flags and
// flags missing their value are errors that name the offending token.
//
// Every command also accepts the observability flags
//   --trace-out=run.json      Chrome/Perfetto trace of the run's spans
//   --metrics-out=metrics.prom  Prometheus text scrape of the run's metrics
// (either --flag=value or --flag value form). Passing one turns
// collection on for the whole run.
//
// Trips files ending in .csv use the text format; anything else uses the
// CSDJ binary format.
//
// `serve` serves the length-prefixed binary framing of src/serve/frame.h
// on HOST:PORT from an epoll event loop (SIGINT/SIGTERM drains and
// exits). The snapshot is served through a ShardedSnapshotStore over a
// K-shard spatial plan: annotation batches are geo-routed to per-shard
// lanes and one tile can rebuild without stalling the rest
// (docs/sharding.md). K defaults to 1, the monolithic deployment; K > 1
// builds the snapshot tile-by-tile (byte-identical to the monolithic
// build).
//
// With --stream 1 the server also accepts INGEST_FIX frames: live GPS
// fixes run through per-user online stay-point detectors, and a ticker
// thread publishes incremental snapshots rebuilding only the dirty tiles
// (docs/streaming.md).
// --stream-decay-half-life-s H > 0 additionally time-decays popularity:
// every stay's Equation 3 contribution is weighted by 2^-(age/H) against
// the stream watermark, so old evidence fades as new evidence arrives.

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/corridors.h"
#include "analysis/schedule.h"
#include "analysis/time_segments.h"
#include "io/binary_io.h"
#include "io/dataset_io.h"
#include "miner/pervasive_miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/chaos_timeline.h"
#include "scenario/scenario.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "shard/sharded_build.h"
#include "stream/stream_ingestor.h"
#include "synth/city_generator.h"
#include "synth/trip_generator.h"
#include "traj/journey.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace csd {
namespace {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag value, got '%s'\n", argv[i]);
        ok_ = false;
        return;
      }
      const char* body = argv[i] + 2;
      if (const char* eq = std::strchr(body, '=')) {
        values_[std::string(body, eq)] = eq + 1;
      } else if (std::strcmp(body, "help") == 0 ||
                 std::strcmp(body, "list-scenarios") == 0) {
        values_[body] = "1";  // boolean flags never eat a value
      } else if (i + 1 >= argc) {
        std::fprintf(stderr, "flag '%s' is missing its value\n", argv[i]);
        ok_ = false;
        return;
      } else if (std::strncmp(argv[i + 1], "--", 2) == 0) {
        std::fprintf(stderr,
                     "flag '%s' is missing its value (next token is '%s')\n",
                     argv[i], argv[i + 1]);
        ok_ = false;
        return;
      } else {
        values_[body] = argv[++i];
      }
    }
  }

  bool ok() const { return ok_; }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  const std::map<std::string, std::string>& values() const { return values_; }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

  bool Require(std::initializer_list<const char*> keys) const {
    bool all = true;
    for (const char* key : keys) {
      if (values_.count(key) == 0) {
        std::fprintf(stderr, "missing required flag --%s\n", key);
        all = false;
      }
    }
    return all;
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

struct FlagSpec {
  const char* name;
  const char* help;
  bool required = false;
};

struct CommandSpec {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;
};

/// One entry per command: the allowlist that rejects unknown flags and the
/// text behind `csdctl <command> --help`.
const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"generate",
       "write a synthetic city (POI CSV + taxi journeys)",
       {{"out-pois", "output POI CSV path", true},
        {"out-trips", "output journeys (.csv text, else CSDJ binary)", true},
        {"pois", "number of POIs (default 15000)"},
        {"agents", "number of simulated agents (default 2000)"},
        {"days", "days of trips to simulate (default 7)"},
        {"seed", "RNG seed (default 7)"},
        {"width", "city width in meters (default 16000)"},
        {"height", "city height in meters (default 16000)"},
        {"scenario", "start from a named scenario pack's city/trip recipe "
                     "(explicit flags above still override; "
                     "docs/scenarios.md)"},
        {"list-scenarios", "list registered scenario packs and exit"}}},
      {"build-csd",
       "build the City Semantic Diagram and write a binary snapshot",
       {{"pois", "POI CSV from generate", true},
        {"trips", "journeys file from generate", true},
        {"out", "output CSD binary path", true},
        {"r3sigma", "recognition radius in meters (default 100)"}}},
      {"recognize",
       "look up the semantic unit at one coordinate",
       {{"pois", "POI CSV from generate", true},
        {"csd", "CSD binary from build-csd", true},
        {"x", "query x in meters", true},
        {"y", "query y in meters", true},
        {"r3sigma", "recognition radius in meters (default 100)"}}},
      {"mine",
       "run a full annotate+extract pipeline and report quality metrics",
       {{"pois", "POI CSV from generate", true},
        {"trips", "journeys file from generate", true},
        {"recognizer", "csd|roi (default csd)"},
        {"extractor", "pm|splitter|sdbscan (default pm)"},
        {"sigma", "support threshold (default 50)"},
        {"delta-t-min", "temporal constraint in minutes (default 60)"},
        {"rho", "density threshold (default 0.002)"},
        {"closed", "1 = closed patterns only (default 0)"},
        {"out", "optional output patterns CSV"}}},
      {"analyze",
       "summarize a mined pattern set (segments, corridors, routines)",
       {{"patterns", "patterns CSV from mine", true}}},
      {"serve",
       "serve the framed binary protocol over a snapshot store",
       {{"pois", "POI CSV from generate", true},
        {"trips", "journeys file from generate", true},
        {"listen", "serve on HOST:PORT (port 0 picks one; SIGINT/SIGTERM "
                   "drains and stops)", true},
        {"loops", "epoll event-loop threads (default 1)"},
        {"shards", "serve through K spatial shard lanes (tiled build, "
                   "geo-routed annotation, per-shard rebuild; "
                   "default 1 = monolithic)"},
        {"max-batch", "max coalesced requests per batch (default 64)"},
        {"max-delay-us", "batch window in microseconds (default 1000)"},
        {"annotate-limit", "max in-flight annotations (default 1024)"},
        {"query-limit", "max in-flight pattern queries (default 256)"},
        {"sigma", "support threshold for mined patterns (default 50)"},
        {"delta-t-min", "temporal constraint in minutes (default 60)"},
        {"rho", "density threshold (default 0.002)"},
        {"closed", "1 = closed patterns only (default 0)"},
        {"patterns", "0 = skip pattern mining on (re)build (default 1)"},
        {"stream", "1 = accept INGEST_FIX frames and fold them into "
                   "incremental snapshots (docs/streaming.md)"},
        {"stream-tick-ms", "publish-tick period in milliseconds "
                           "(default 1000)"},
        {"stream-checkpoint-every", "every Nth publish tick is a full "
                                    "rebuild checkpoint (default 0 = "
                                    "never)"},
        {"stream-reorder-window-s", "buffer out-of-order fixes up to this "
                                    "many seconds; older ones are dropped "
                                    "with a metric (default 0)"},
        {"stream-decay-half-life-s", "half-life in seconds for "
                                     "time-decayed popularity (default 0 "
                                     "= no decay; builds stay "
                                     "byte-identical to batch)"},
        {"scenario", "walk the named pack's chaos schedule (failpoint "
                     "arm/disarm per load phase) once listening"},
        {"list-scenarios", "list registered scenario packs and exit"}}},
  };
  return kCommands;
}

const CommandSpec* FindCommand(const std::string& name) {
  for (const CommandSpec& command : Commands()) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

int PrintCommandHelp(const CommandSpec& command) {
  std::fprintf(stderr, "usage: csdctl %s [--flag value]...\n  %s\n\nflags:\n",
               command.name, command.summary);
  for (const FlagSpec& flag : command.flags) {
    std::fprintf(stderr, "  --%-15s %s%s\n", flag.name, flag.help,
                 flag.required ? " (required)" : "");
  }
  std::fprintf(stderr,
               "  --%-15s write a Chrome trace of the run's spans\n"
               "  --%-15s write a Prometheus text scrape of the run\n",
               "trace-out", "metrics-out");
  return 0;
}

/// Rejects flags outside the command's allowlist, naming the token.
bool ValidateFlags(const CommandSpec& command, const Args& args) {
  bool all_known = true;
  for (const auto& [key, value] : args.values()) {
    if (key == "trace-out" || key == "metrics-out" || key == "help") continue;
    bool known = false;
    for (const FlagSpec& flag : command.flags) {
      if (key == flag.name) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr,
                   "unknown flag '--%s' for 'csdctl %s' "
                   "(try 'csdctl %s --help')\n",
                   key.c_str(), command.name, command.name);
      all_known = false;
    }
  }
  return all_known;
}

bool IsCsv(const std::string& path) {
  return path.size() >= 4 && path.rfind(".csv") == path.size() - 4;
}

Result<std::vector<TaxiJourney>> LoadJourneys(const std::string& path) {
  return IsCsv(path) ? ReadJourneysCsv(path) : ReadJourneysBinary(path);
}

Status SaveJourneys(const std::string& path,
                    const std::vector<TaxiJourney>& journeys) {
  return IsCsv(path) ? WriteJourneysCsv(path, journeys)
                     : WriteJourneysBinary(path, journeys);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGenerate(const Args& args) {
  if (args.Has("list-scenarios")) {
    std::printf("%s", scenario::ListScenariosText().c_str());
    return 0;
  }
  if (!args.Require({"out-pois", "out-trips"})) return 2;
  // A scenario pack seeds the recipe; explicit flags still override so CI
  // can shrink a pack without editing the registry.
  CityConfig city_config;
  TripConfig trip_config;
  if (args.Has("scenario")) {
    auto pack_or = scenario::GetScenario(args.Get("scenario"));
    if (!pack_or.ok()) return Fail(pack_or.status());
    city_config = pack_or.value().city;
    trip_config = pack_or.value().trips;
  }
  if (!args.Has("scenario") || args.Has("pois")) {
    // Population scaling only fills num_pois when it is 0, so an explicit
    // count wins while the pack's district mix stays population-shaped.
    city_config.num_pois = static_cast<size_t>(args.GetInt("pois", 15000));
  }
  if (!args.Has("scenario") || args.Has("seed")) {
    city_config.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
    trip_config.seed = static_cast<uint64_t>(args.GetInt("seed", 7)) + 55;
  }
  if (!args.Has("scenario") || args.Has("width")) {
    city_config.width_m = args.GetDouble("width", 16000.0);
  }
  if (!args.Has("scenario") || args.Has("height")) {
    city_config.height_m = args.GetDouble("height", 16000.0);
  }
  if (!args.Has("scenario") || args.Has("agents")) {
    trip_config.num_agents = static_cast<size_t>(args.GetInt("agents", 2000));
  }
  if (!args.Has("scenario") || args.Has("days")) {
    trip_config.num_days = static_cast<int>(args.GetInt("days", 7));
  }

  SyntheticCity city = GenerateCity(city_config);
  TripDataset trips = GenerateTrips(city, trip_config);
  Status s = WritePoisCsv(args.Get("out-pois"), city.pois);
  if (!s.ok()) return Fail(s);
  s = SaveJourneys(args.Get("out-trips"), trips.journeys);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %zu POIs to %s and %zu journeys to %s\n",
              city.pois.size(), args.Get("out-pois").c_str(),
              trips.journeys.size(), args.Get("out-trips").c_str());
  return 0;
}

int CmdBuildCsd(const Args& args) {
  if (!args.Require({"pois", "trips", "out"})) return 2;
  auto pois_or = ReadPoisCsv(args.Get("pois"));
  if (!pois_or.ok()) return Fail(pois_or.status());
  PoiDatabase pois(std::move(pois_or).value());
  auto journeys_or = LoadJourneys(args.Get("trips"));
  if (!journeys_or.ok()) return Fail(journeys_or.status());
  std::vector<StayPoint> stays = CollectStayPoints(journeys_or.value());

  CsdBuildOptions options;
  options.r3sigma = args.GetDouble("r3sigma", 100.0);
  Stopwatch watch;
  CitySemanticDiagram diagram = CsdBuilder(options).Build(pois, stays);
  std::printf("built CSD in %.2fs: %zu units, coverage %.1f%%, purity "
              "%.3f\n",
              watch.ElapsedSeconds(), diagram.num_units(),
              100.0 * diagram.CoverageRatio(), diagram.MeanUnitPurity());
  Status s = WriteCsdBinary(args.Get("out"), diagram);
  if (!s.ok()) return Fail(s);
  std::printf("snapshot written to %s\n", args.Get("out").c_str());
  return 0;
}

int CmdRecognize(const Args& args) {
  if (!args.Require({"pois", "csd", "x", "y"})) return 2;
  auto pois_or = ReadPoisCsv(args.Get("pois"));
  if (!pois_or.ok()) return Fail(pois_or.status());
  PoiDatabase pois(std::move(pois_or).value());
  auto diagram_or = ReadCsdBinary(args.Get("csd"), pois);
  if (!diagram_or.ok()) return Fail(diagram_or.status());
  CsdRecognizer recognizer(&diagram_or.value(),
                           args.GetDouble("r3sigma", 100.0));
  Vec2 position{args.GetDouble("x", 0.0), args.GetDouble("y", 0.0)};
  UnitId unit = kNoUnit;
  SemanticProperty property = recognizer.RecognizeWithUnit(position, &unit);
  if (unit == kNoUnit) {
    std::printf("no semantic unit within range of (%.1f, %.1f)\n",
                position.x, position.y);
    return 0;
  }
  const SemanticUnit& u = diagram_or.value().unit(unit);
  std::printf("(%.1f, %.1f) -> unit %u (%zu POIs around (%.0f, %.0f)): %s\n",
              position.x, position.y, unit, u.size(), u.centroid.x,
              u.centroid.y, property.ToString().c_str());
  return 0;
}

int CmdMine(const Args& args) {
  if (!args.Require({"pois", "trips"})) return 2;
  auto pois_or = ReadPoisCsv(args.Get("pois"));
  if (!pois_or.ok()) return Fail(pois_or.status());
  PoiDatabase pois(std::move(pois_or).value());
  auto journeys_or = LoadJourneys(args.Get("trips"));
  if (!journeys_or.ok()) return Fail(journeys_or.status());
  const std::vector<TaxiJourney>& journeys = journeys_or.value();

  std::vector<StayPoint> stays = CollectStayPoints(journeys);
  SemanticTrajectoryDb db = JourneysToStayPairs(journeys);
  SemanticTrajectoryDb linked = LinkJourneys(journeys, {});
  db.insert(db.end(), linked.begin(), linked.end());
  for (size_t i = 0; i < db.size(); ++i) {
    db[i].id = static_cast<TrajectoryId>(i);
  }

  MinerConfig config;
  config.extraction.support_threshold =
      static_cast<size_t>(args.GetInt("sigma", 50));
  config.extraction.temporal_constraint =
      args.GetInt("delta-t-min", 60) * kSecondsPerMinute;
  config.extraction.density_threshold = args.GetDouble("rho", 0.002);
  config.extraction.closed_patterns = args.GetInt("closed", 0) != 0;

  PipelineKind pipeline;
  std::string recognizer = args.Get("recognizer", "csd");
  std::string extractor = args.Get("extractor", "pm");
  pipeline.recognizer =
      recognizer == "roi" ? RecognizerKind::kRoi : RecognizerKind::kCsd;
  pipeline.extractor = extractor == "splitter" ? ExtractorKind::kSplitter
                       : extractor == "sdbscan" ? ExtractorKind::kSdbscan
                                                : ExtractorKind::kPervasiveMiner;

  Stopwatch watch;
  PervasiveMiner miner(&pois, stays, config);
  MiningResult result = miner.Run(pipeline, db);
  std::printf("%s: %zu patterns, coverage %zu, avg sparsity %.2fm, avg "
              "consistency %.4f (%.1fs)\n",
              pipeline.Name().c_str(), result.patterns.size(),
              result.metrics.coverage, result.metrics.mean_sparsity,
              result.metrics.mean_consistency, watch.ElapsedSeconds());

  auto segments = SegmentPatterns(result.patterns);
  for (const SegmentSummary& segment : segments) {
    if (segment.patterns.empty()) continue;
    std::printf("  %-18s %3zu patterns", TimeSegmentName(segment.segment),
                segment.patterns.size());
    if (!segment.top_transitions.empty()) {
      std::printf("  top: %s (%zu)",
                  segment.top_transitions[0].first.c_str(),
                  segment.top_transitions[0].second);
    }
    std::printf("\n");
  }

  std::string out = args.Get("out");
  if (!out.empty()) {
    Status s = WritePatternsCsv(out, result.patterns);
    if (!s.ok()) return Fail(s);
    std::printf("patterns written to %s\n", out.c_str());
  }
  return 0;
}

int CmdAnalyze(const Args& args) {
  if (!args.Require({"patterns"})) return 2;
  auto patterns_or = ReadPatternsCsv(args.Get("patterns"));
  if (!patterns_or.ok()) return Fail(patterns_or.status());
  const std::vector<FineGrainedPattern>& patterns = patterns_or.value();
  std::printf("%zu patterns loaded from %s\n\n", patterns.size(),
              args.Get("patterns").c_str());

  auto segments = SegmentPatterns(patterns);
  std::printf("time-of-week segments:\n");
  for (const SegmentSummary& segment : segments) {
    std::printf("  %-18s %3zu patterns, coverage %6zu\n",
                TimeSegmentName(segment.segment), segment.patterns.size(),
                segment.coverage);
    for (const auto& [label, support] : segment.top_transitions) {
      std::printf("      %5zu x %s\n", support, label.c_str());
    }
  }

  auto corridors = AggregateCorridors(patterns);
  std::printf("\ntop corridors:\n");
  for (size_t i = 0; i < corridors.size() && i < 8; ++i) {
    const Corridor& c = corridors[i];
    std::printf("  (%6.0f,%6.0f) -> (%6.0f,%6.0f) %5.1fkm demand %5zu "
                "peak %02d:00  %s\n",
                c.from.x, c.from.y, c.to.x, c.to.y,
                c.LengthMeters() / 1000.0, c.demand, c.PeakHour(),
                c.label.c_str());
  }

  auto regular = RankByRegularity(patterns);
  std::printf("\nmost regular routines:\n");
  for (size_t i = 0; i < regular.size() && i < 5; ++i) {
    const auto& [pattern, schedule] = regular[i];
    std::printf("  %.0f%% within +/-1h of %02d:00, %.0f%% weekdays, "
                "support %zu: %s\n",
                100.0 * schedule.regularity, schedule.peak_hour,
                100.0 * schedule.weekday_share, pattern->support(),
                pattern->SemanticLabel().c_str());
  }
  return 0;
}

int CmdServe(const Args& args) {
  if (args.Has("list-scenarios")) {
    std::printf("%s", scenario::ListScenariosText().c_str());
    return 0;
  }
  if (!args.Require({"pois", "trips", "listen"})) return 2;
  // --scenario arms the pack's chaos windows on the pack's load-phase
  // clock once the listener is up; validate the name before the build.
  std::optional<scenario::ScenarioPack> chaos_pack;
  if (args.Has("scenario")) {
    auto pack_or = scenario::GetScenario(args.Get("scenario"));
    if (!pack_or.ok()) return Fail(pack_or.status());
    chaos_pack = std::move(pack_or).value();
  }
  const int64_t shards = args.GetInt("shards", 1);
  if (shards <= 0) {
    return Fail(Status::InvalidArgument(StrFormat(
        "--shards must be >= 1, got '%s'", args.Get("shards").c_str())));
  }
  const bool stream_on = args.GetInt("stream", 0) != 0;
  // Validate --listen before the expensive snapshot build, and block the
  // lifetime signals before any service/loop thread spawns so every
  // thread inherits the mask and sigwait below is the only receiver.
  auto addr_or = serve::ParseHostPort("--listen", args.Get("listen"));
  if (!addr_or.ok()) return Fail(addr_or.status());
  const std::pair<std::string, uint16_t> listen_addr =
      std::move(addr_or).value();
  sigset_t signal_set;
  sigemptyset(&signal_set);
  sigaddset(&signal_set, SIGINT);
  sigaddset(&signal_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signal_set, nullptr);

  auto pois_or = ReadPoisCsv(args.Get("pois"));
  if (!pois_or.ok()) return Fail(pois_or.status());
  auto journeys_or = LoadJourneys(args.Get("trips"));
  if (!journeys_or.ok()) return Fail(journeys_or.status());

  std::shared_ptr<const serve::ServeDataset> dataset = serve::MakeServeDataset(
      std::move(pois_or).value(), journeys_or.value());

  serve::SnapshotOptions snapshot_options;
  snapshot_options.miner.extraction.support_threshold =
      static_cast<size_t>(args.GetInt("sigma", 50));
  snapshot_options.miner.extraction.temporal_constraint =
      args.GetInt("delta-t-min", 60) * kSecondsPerMinute;
  snapshot_options.miner.extraction.density_threshold =
      args.GetDouble("rho", 0.002);
  snapshot_options.miner.extraction.closed_patterns =
      args.GetInt("closed", 0) != 0;
  snapshot_options.mine_patterns = args.GetInt("patterns", 1) != 0;
  const double decay_half_life_s =
      args.GetDouble("stream-decay-half-life-s", 0.0);
  if (decay_half_life_s < 0.0) {
    return Fail(Status::InvalidArgument(
        "--stream-decay-half-life-s must be >= 0"));
  }
  if (decay_half_life_s > 0.0 && !stream_on) {
    return Fail(Status::InvalidArgument(
        "--stream-decay-half-life-s decays popularity against the stream "
        "watermark and needs --stream 1"));
  }
  // One knob, one home: every build this process runs — the bootstrap
  // snapshot, checkpoint rebuilds, and the in-tile incremental engine —
  // reads the half-life from the service's snapshot options.
  snapshot_options.miner.csd.decay.half_life_s = decay_half_life_s;

  serve::ServeOptions options;
  options.batch.max_batch =
      static_cast<size_t>(args.GetInt("max-batch", 64));
  options.batch.max_delay =
      std::chrono::microseconds(args.GetInt("max-delay-us", 1000));
  options.limits.annotate =
      static_cast<size_t>(args.GetInt("annotate-limit", 1024));
  options.limits.query =
      static_cast<size_t>(args.GetInt("query-limit", 256));
  options.snapshot = snapshot_options;

  Stopwatch watch;
  shard::ShardPlan plan = shard::PlanForCity(
      dataset->pois, static_cast<size_t>(shards), snapshot_options.miner.csd);
  auto initial =
      std::make_shared<serve::CsdSnapshot>(dataset, snapshot_options, plan);
  serve::ShardedSnapshotStore store(plan.num_shards());
  const uint64_t initial_version = store.PublishAll(initial);
  serve::ServeService service(&store, plan, options);

  std::fprintf(stderr,
               "serve: snapshot v%llu ready in %.2fs (%zu units, %zu "
               "patterns, %zu journeys, %zu shard lanes)\n",
               static_cast<unsigned long long>(initial_version),
               watch.ElapsedSeconds(), initial->diagram().num_units(),
               initial->patterns().size(), journeys_or.value().size(),
               plan.num_shards());
  initial.reset();

  serve::NetServerOptions net_options;
  net_options.host = listen_addr.first;
  net_options.port = listen_addr.second;
  net_options.num_loops =
      static_cast<size_t>(std::max<int64_t>(1, args.GetInt("loops", 1)));

  // The streaming layer sits behind the INGEST_FIX frame: fixes fold
  // into per-user detectors on the ingest path, and a ticker thread
  // turns the accumulated delta into incremental publications.
  std::optional<stream::StreamIngestor> ingestor;
  std::thread ticker;
  std::atomic<bool> ticker_stop{false};
  if (stream_on) {
    stream::StreamOptions stream_options;
    stream_options.checkpoint_every = static_cast<size_t>(
        std::max<int64_t>(0, args.GetInt("stream-checkpoint-every", 0)));
    stream_options.detector.reorder_window_s =
        std::max<int64_t>(0, args.GetInt("stream-reorder-window-s", 0));
    ingestor.emplace(&service, &store, plan, dataset, stream_options);
    net_options.ingest_handler =
        [&ingestor](uint32_t user_id, std::span<const GpsPoint> fixes) {
          return ingestor->IngestFixes(user_id, fixes);
        };
    const auto tick = std::chrono::milliseconds(
        std::max<int64_t>(1, args.GetInt("stream-tick-ms", 1000)));
    ticker = std::thread([&ingestor, &ticker_stop, tick] {
      while (!ticker_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(tick);
        if (ticker_stop.load(std::memory_order_acquire)) break;
        if (ingestor->pending_stays() > 0) ingestor->PublishTick();
      }
    });
    std::fprintf(stderr,
                 "serve: stream ingest on (tick %lld ms, checkpoint "
                 "every %zu ticks, reorder window %lld s, decay "
                 "half-life %.0f s)\n",
                 static_cast<long long>(tick.count()),
                 stream_options.checkpoint_every,
                 static_cast<long long>(
                     stream_options.detector.reorder_window_s),
                 decay_half_life_s);
  }
  auto server_or = serve::NetServer::Start(&service, net_options);
  if (!server_or.ok()) {
    if (ticker.joinable()) {
      ticker_stop.store(true, std::memory_order_release);
      ticker.join();
    }
    service.Shutdown();
    return Fail(server_or.status());
  }
  std::unique_ptr<serve::NetServer> server = std::move(server_or).value();
  std::fprintf(stderr,
               "serve: listening on %s:%u (framed binary protocol, %zu "
               "loops); SIGINT/SIGTERM drains and exits\n",
               net_options.host.c_str(),
               static_cast<unsigned>(server->port()), net_options.num_loops);
  // The chaos walker starts on the listen announcement; a client pacing
  // the same pack is expected to connect promptly (docs/scenarios.md
  // covers the wall-clock alignment).
  std::atomic<bool> chaos_stop{false};
  std::thread chaos;
  if (chaos_pack) {
    std::fprintf(stderr,
                 "serve: scenario %s chaos schedule armed (%zu windows "
                 "over %.0fs)\n",
                 chaos_pack->name.c_str(), chaos_pack->chaos.size(),
                 chaos_pack->TotalDurationS());
    chaos = std::thread([&chaos_pack, &chaos_stop] {
      scenario::RunChaosTimeline(*chaos_pack, chaos_stop);
    });
  }
  int sig = 0;
  sigwait(&signal_set, &sig);
  std::fprintf(stderr, "serve: signal %d, draining\n", sig);
  if (chaos.joinable()) {
    chaos_stop.store(true, std::memory_order_release);
    chaos.join();
  }
  server->Shutdown();
  if (ticker.joinable()) {
    ticker_stop.store(true, std::memory_order_release);
    ticker.join();
  }
  if (ingestor) {
    // Close every open detector window and fold the remainder through
    // one forced checkpoint, so a drained server leaves an exact
    // full-city snapshot behind and both stream gauges read zero (the
    // CI stream-smoke job asserts the scraped values, not presence).
    ingestor->FlushAll();
    ingestor->PublishTick(/*force_checkpoint=*/true);
    std::fprintf(
        stderr,
        "serve: stream drained (%llu fixes, %llu stays, %llu late "
        "dropped, %zu pending)\n",
        static_cast<unsigned long long>(ingestor->fixes_ingested()),
        static_cast<unsigned long long>(ingestor->stays_emitted()),
        static_cast<unsigned long long>(ingestor->late_dropped()),
        ingestor->pending_stays());
  }
  service.Shutdown();
  const serve::AdmissionController& admission = service.admission();
  std::fprintf(stderr,
               "serve: drained (annotate %llu admitted / %llu rejected, "
               "query %llu/%llu, rebuild %llu/%llu)\n",
               static_cast<unsigned long long>(
                   admission.Admitted(serve::RequestClass::kAnnotate)),
               static_cast<unsigned long long>(
                   admission.Rejected(serve::RequestClass::kAnnotate)),
               static_cast<unsigned long long>(
                   admission.Admitted(serve::RequestClass::kQuery)),
               static_cast<unsigned long long>(
                   admission.Rejected(serve::RequestClass::kQuery)),
               static_cast<unsigned long long>(
                   admission.Admitted(serve::RequestClass::kRebuild)),
               static_cast<unsigned long long>(
                   admission.Rejected(serve::RequestClass::kRebuild)));
  return 0;
}

int Usage() {
  std::fprintf(stderr, "usage: csdctl <command> [--flag value]...\n\n"
                       "commands:\n");
  for (const CommandSpec& command : Commands()) {
    std::fprintf(stderr, "  %-10s %s\n", command.name, command.summary);
  }
  std::fprintf(stderr,
               "\n'csdctl <command> --help' lists a command's flags.\n");
  return 2;
}

int Dispatch(const std::string& command, const Args& args) {
  if (command == "generate") return CmdGenerate(args);
  if (command == "build-csd") return CmdBuildCsd(args);
  if (command == "recognize") return CmdRecognize(args);
  if (command == "mine") return CmdMine(args);
  if (command == "analyze") return CmdAnalyze(args);
  if (command == "serve") return CmdServe(args);
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const CommandSpec* command = FindCommand(argv[1]);
  if (command == nullptr) {
    if (std::strcmp(argv[1], "help") == 0 ||
        std::strcmp(argv[1], "--help") == 0) {
      Usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n\n", argv[1]);
    return Usage();
  }
  Args args(argc, argv);
  if (!args.ok()) return 2;
  if (args.Has("help")) return PrintCommandHelp(*command);
  if (!ValidateFlags(*command, args)) return 2;

  // Observability flags apply to every command: requesting an output file
  // turns collection on for the whole run, and the files are written even
  // when the command fails, so a bad run leaves a trace to debug with.
  std::string trace_out = args.Get("trace-out");
  std::string metrics_out = args.Get("metrics-out");
  if (!trace_out.empty() || !metrics_out.empty()) obs::SetEnabled(true);

  int rc = Dispatch(argv[1], args);

  if (!trace_out.empty()) {
    if (obs::Tracer::Get().WriteChromeTrace(trace_out)) {
      std::printf("trace written to %s (open in ui.perfetto.dev or "
                  "chrome://tracing)\n",
                  trace_out.c_str());
    } else if (rc == 0) {
      rc = 1;
    }
  }
  if (!metrics_out.empty()) {
    if (obs::MetricsRegistry::Get().WritePrometheusFile(metrics_out)) {
      std::printf("metrics written to %s\n", metrics_out.c_str());
    } else if (rc == 0) {
      rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace csd

int main(int argc, char** argv) { return csd::Main(argc, argv); }
