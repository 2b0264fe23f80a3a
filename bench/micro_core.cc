// Micro-benchmarks (google-benchmark) for the core computational kernels:
// spatial indexes, clustering substrates, the popularity model, PrefixSpan,
// CSD construction and recognition throughput. These are engineering
// numbers (no paper counterpart) used to watch for regressions.

#include <benchmark/benchmark.h>

#include "bench/alloc_interposer.h"

#include "cluster/dbscan.h"
#include "cluster/optics.h"
#include "core/city_semantic_diagram.h"
#include "core/semantic_recognition.h"
#include "index/grid_index.h"
#include "seqmine/prefix_span.h"
#include "synth/city_generator.h"
#include "synth/trip_generator.h"
#include "traj/journey.h"
#include "util/rng.h"

namespace csd {
namespace {


/// Attaches an "allocs/op" counter: operator-new calls per benchmark
/// iteration, counted by bench/alloc_interposer.cc (0 when the
/// interposer is not linked). Call with AllocationCount() taken just
/// before the measurement loop.
void ReportAllocs(benchmark::State& state, uint64_t since) {
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(bench::AllocationCount() - since),
      benchmark::Counter::kAvgIterations);
}

std::vector<Vec2> RandomPoints(size_t n, double extent, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
  }
  return pts;
}

void BM_GridIndexBuild(benchmark::State& state) {
  auto pts = RandomPoints(static_cast<size_t>(state.range(0)), 10000.0, 1);
  uint64_t a0 = bench::AllocationCount();
  for (auto _ : state) {
    GridIndex index(pts, 50.0);
    benchmark::DoNotOptimize(index.size());
  }
  ReportAllocs(state, a0);
}
BENCHMARK(BM_GridIndexBuild)->Arg(10000)->Arg(100000);

void BM_GridIndexRadiusQuery(benchmark::State& state) {
  auto pts = RandomPoints(100000, 10000.0, 2);
  GridIndex index(pts, 100.0);
  Rng rng(3);
  uint64_t a0 = bench::AllocationCount();
  for (auto _ : state) {
    Vec2 q{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    benchmark::DoNotOptimize(index.CountInRadius(q, 100.0));
  }
  ReportAllocs(state, a0);
}
BENCHMARK(BM_GridIndexRadiusQuery);

void BM_Dbscan(benchmark::State& state) {
  auto pts = RandomPoints(static_cast<size_t>(state.range(0)), 5000.0, 6);
  DbscanOptions options;
  options.eps = 60.0;
  options.min_pts = 5;
  uint64_t a0 = bench::AllocationCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dbscan(pts, options).num_clusters);
  }
  ReportAllocs(state, a0);
}
BENCHMARK(BM_Dbscan)->Arg(5000)->Arg(20000);

void BM_Optics(benchmark::State& state) {
  auto pts = RandomPoints(static_cast<size_t>(state.range(0)), 5000.0, 7);
  uint64_t a0 = bench::AllocationCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(OpticsCluster(pts, 25, 500.0).num_clusters);
  }
  ReportAllocs(state, a0);
}
BENCHMARK(BM_Optics)->Arg(2000)->Arg(8000);

void BM_PrefixSpan(benchmark::State& state) {
  Rng rng(8);
  std::vector<Sequence> db;
  for (int i = 0; i < 20000; ++i) {
    Sequence seq;
    int len = static_cast<int>(rng.UniformInt(2, 5));
    for (int j = 0; j < len; ++j) {
      seq.push_back(static_cast<Item>(rng.UniformInt(0, 14)));
    }
    db.push_back(seq);
  }
  PrefixSpanOptions options;
  options.min_support = 50;
  options.min_length = 2;
  options.max_length = 4;
  uint64_t a0 = bench::AllocationCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrefixSpan(db, options).size());
  }
  ReportAllocs(state, a0);
}
BENCHMARK(BM_PrefixSpan);

struct CityFixture {
  CityFixture() {
    CityConfig config;
    config.num_pois = 10000;
    city = GenerateCity(config);
    TripConfig trips_config;
    trips_config.num_agents = 1000;
    trips = GenerateTrips(city, trips_config);
    pois = std::make_unique<PoiDatabase>(city.pois);
    stays = CollectStayPoints(trips.journeys);
  }

  SyntheticCity city;
  TripDataset trips;
  std::unique_ptr<PoiDatabase> pois;
  std::vector<StayPoint> stays;
};

CityFixture& Fixture() {
  static CityFixture* const fixture = new CityFixture();
  return *fixture;
}

void BM_PopularityModel(benchmark::State& state) {
  CityFixture& f = Fixture();
  uint64_t a0 = bench::AllocationCount();
  for (auto _ : state) {
    PopularityModel model(*f.pois, f.stays, 100.0);
    benchmark::DoNotOptimize(model.popularities().size());
  }
  ReportAllocs(state, a0);
}
BENCHMARK(BM_PopularityModel);

void BM_CsdBuild(benchmark::State& state) {
  CityFixture& f = Fixture();
  CsdBuilder builder;
  uint64_t a0 = bench::AllocationCount();
  for (auto _ : state) {
    CitySemanticDiagram diagram = builder.Build(*f.pois, f.stays);
    benchmark::DoNotOptimize(diagram.num_units());
  }
  ReportAllocs(state, a0);
}
BENCHMARK(BM_CsdBuild);

void BM_Recognition(benchmark::State& state) {
  CityFixture& f = Fixture();
  static const CitySemanticDiagram* const diagram =
      new CitySemanticDiagram(CsdBuilder().Build(*f.pois, f.stays));
  CsdRecognizer recognizer(diagram, 100.0);
  size_t i = 0;
  uint64_t a0 = bench::AllocationCount();
  for (auto _ : state) {
    const StayPoint& sp = f.stays[i++ % f.stays.size()];
    benchmark::DoNotOptimize(recognizer.Recognize(sp.position).bits());
  }
  ReportAllocs(state, a0);
}
BENCHMARK(BM_Recognition);

}  // namespace
}  // namespace csd

BENCHMARK_MAIN();
