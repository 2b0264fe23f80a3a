#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "io/binary_io.h"
#include "io/dataset_io.h"
#include "synth/city_generator.h"
#include "synth/trace_replayer.h"
#include "synth/trip_generator.h"
#include "util/rng.h"

namespace csd::perfbench {

namespace {

constexpr char kFleetMagic[4] = {'P', 'B', 'F', 'L'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool Put(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool Get(std::FILE* f, T* v) {
  return std::fread(v, sizeof(T), 1, f) == 1;
}

TripDataset Trips(const SyntheticCity& city, size_t agents, int days,
                  uint64_t seed) {
  TripConfig config;
  config.num_agents = agents;
  config.num_days = days;
  config.seed = seed;
  return GenerateTrips(city, config);
}

Status WriteCity(const SyntheticCity& city, const TripDataset& trips,
                 const InputPaths& paths) {
  Status s = WritePoisCsv(paths.pois, city.pois);
  if (!s.ok()) return s;
  return WriteJourneysBinary(paths.trips, trips.journeys);
}

}  // namespace

InputPaths::InputPaths(const std::string& dir)
    : pois(dir + "/pois.csv"),
      trips(dir + "/trips.bin"),
      heldout(dir + "/heldout.bin"),
      fleet(dir + "/fleet.bin") {}

const scenario::ScenarioPack& ServePack() {
  static const scenario::ScenarioPack pack =
      scenario::GetScenario("megacity-steady").value();
  return pack;
}

Status GenerateInputs(const std::string& workload, uint64_t seed,
                      double seconds, const std::string& dir) {
  InputPaths paths(dir);
  if (workload == "mine-batch") {
    // A fixed city and trip log (csdctl generate's default seeds) in a
    // seeded row order. Redrawing the log per seed changes how crowded
    // the busiest hub is, which sets OPTICS time and peak memory several
    // times over; even a 3 m GPS jitter per seed flips the densest
    // OPTICS neighbourhoods, and peak memory with them (~290 vs ~365
    // MiB). A reordered log is new input of one shape.
    CityConfig config;
    config.num_pois = Sizes::kMinePois;
    SyntheticCity city = GenerateCity(config);
    TripDataset trips =
        Trips(city, Sizes::kMineAgents, Sizes::kMineDays, config.seed + 55);
    Rng rng(seed);
    std::vector<TaxiJourney>& log = trips.journeys;
    for (size_t i = log.size(); i > 1; --i) {
      std::swap(log[i - 1], log[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
    }
    return WriteCity(city, trips, paths);
  }
  if (workload != "annotate-read" && workload != "ingest-mixed") {
    return Status::InvalidArgument("unknown workload " + workload);
  }
  // The pack's fixed city; the seed draws the bootstrap trips, the
  // held-out requests and the replay fleet.
  const scenario::ScenarioPack& pack = ServePack();
  SyntheticCity city = GenerateCity(pack.city);
  const bool ingest = workload == "ingest-mixed";
  TripConfig trips = pack.trips;
  trips.seed = pack.trips.seed + seed;
  if (ingest) trips.num_agents /= Sizes::kIngestBootstrapDivisor;
  Status s = WriteCity(city, GenerateTrips(city, trips), paths);
  if (!s.ok()) return s;
  TripConfig heldout = pack.trips;
  heldout.seed = pack.trips.seed + seed + 1000;
  heldout.num_agents = Sizes::kHeldoutAgents;
  heldout.num_days = Sizes::kHeldoutDays;
  s = WriteJourneysBinary(paths.heldout,
                          GenerateTrips(city, heldout).journeys);
  if (!s.ok() || !ingest) return s;

  const double fleet_fixes = 1.2 * Sizes::kFleetFixesPerSecond * seconds;
  ReplayConfig replay = pack.replay;
  replay.seed = pack.replay.seed + seed;
  // Size the itineraries so the fleet carries `fleet_fixes` fixes:
  // probe a few users' fixes per stop, then scale the stop count.
  ReplayConfig probe = replay;
  probe.num_users = 8;
  probe.stops_per_user = 8;
  ReplaySet sample = MakeReplaySet(city, probe);
  if (sample.stream.empty()) {
    return Status::Internal("replay fleet produced no fixes");
  }
  double fixes_per_stop = static_cast<double>(sample.stream.size()) /
                          static_cast<double>(probe.num_users *
                                              probe.stops_per_user);
  replay.stops_per_user = std::max<size_t>(
      2, static_cast<size_t>(fleet_fixes /
                             (fixes_per_stop * replay.num_users)) +
             1);
  return WriteFleet(paths.fleet, MakeReplaySet(city, replay).traces);
}

Status WriteFleet(const std::string& path,
                  const std::vector<Trajectory>& traces) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot write " + path);
  bool ok = std::fwrite(kFleetMagic, 1, 4, f.get()) == 4 &&
            Put(f.get(), static_cast<uint64_t>(traces.size()));
  for (const Trajectory& trace : traces) {
    ok = ok && Put(f.get(), static_cast<uint64_t>(trace.points.size()));
    for (const GpsPoint& p : trace.points) {
      ok = ok && Put(f.get(), p.position.x) && Put(f.get(), p.position.y) &&
           Put(f.get(), static_cast<int64_t>(p.time));
    }
  }
  if (!ok) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<std::vector<Trajectory>> ReadFleet(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot read " + path);
  char magic[4];
  uint64_t users = 0;
  if (std::fread(magic, 1, 4, f.get()) != 4 ||
      std::memcmp(magic, kFleetMagic, 4) != 0 || !Get(f.get(), &users) ||
      users > (1u << 20)) {
    return Status::ParseError(path + ": not a fleet file");
  }
  std::vector<Trajectory> traces(users);
  for (uint64_t u = 0; u < users; ++u) {
    uint64_t n = 0;
    if (!Get(f.get(), &n) || n > (1u << 26)) {
      return Status::ParseError(path + ": bad trace length");
    }
    traces[u].id = static_cast<TrajectoryId>(u);
    traces[u].passenger = static_cast<PassengerId>(u);
    traces[u].points.resize(n);
    for (GpsPoint& p : traces[u].points) {
      int64_t t = 0;
      if (!Get(f.get(), &p.position.x) || !Get(f.get(), &p.position.y) ||
          !Get(f.get(), &t)) {
        return Status::ParseError(path + ": truncated");
      }
      p.time = static_cast<Timestamp>(t);
    }
  }
  return traces;
}

std::vector<StayPoint> HeldoutStays(const std::vector<TaxiJourney>& journeys) {
  std::vector<StayPoint> stays;
  stays.reserve(2 * journeys.size());
  for (const TaxiJourney& j : journeys) {
    stays.emplace_back(j.pickup.position, j.pickup.time);
    stays.emplace_back(j.dropoff.position, j.dropoff.time);
  }
  return stays;
}

}  // namespace csd::perfbench
