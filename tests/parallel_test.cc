#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/popularity.h"
#include "core/semantic_recognition.h"
#include "miner/pervasive_miner.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "synth/city_generator.h"
#include "synth/trip_generator.h"
#include "tests/test_helpers.h"
#include "traj/journey.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csd {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (size_t n : {0u, 1u, 100u, 5000u, 12345u}) {
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(n, [&hits](size_t i) { hits[i]++; });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, ExplicitThreadCounts) {
  const size_t n = 10000;
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    std::atomic<int64_t> sum{0};
    ParallelFor(
        n, [&sum](size_t i) { sum += static_cast<int64_t>(i); },
        {.max_threads = threads});
    EXPECT_EQ(sum.load(), static_cast<int64_t>(n * (n - 1) / 2))
        << "threads=" << threads;
  }
}

TEST(ParallelForTest, DefaultParallelismIsPositive) {
  EXPECT_GE(DefaultParallelism(), 1u);
}

TEST(ParallelForTest, SetDefaultParallelismOverridesAndRestores) {
  size_t original = DefaultParallelism();
  SetDefaultParallelism(3);
  EXPECT_EQ(DefaultParallelism(), 3u);
  SetDefaultParallelism(0);
  EXPECT_EQ(DefaultParallelism(), original);
}

// --- grain-size edge cases ---------------------------------------------------

TEST(ParallelForTest, GrainLargerThanRangeRunsSerially) {
  // n <= grain must not touch the pool: everything runs on this thread.
  std::thread::id self = std::this_thread::get_id();
  std::atomic<int> hits{0};
  ParallelFor(
      100,
      [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        hits++;
      },
      {.grain = 1000, .max_threads = 4});
  EXPECT_EQ(hits.load(), 100);
}

TEST(ParallelForTest, GrainOfOneVisitsEveryIndex) {
  const size_t n = 537;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(
      n, [&hits](size_t i) { hits[i]++; }, {.grain = 1, .max_threads = 4});
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, AutoGrainHandlesAwkwardSizes) {
  // Sizes straddling the auto-grain serial cutoff and chunk rounding.
  for (size_t n : {1u, 255u, 256u, 257u, 1023u, 4097u}) {
    std::atomic<int64_t> sum{0};
    ParallelFor(
        n, [&sum](size_t i) { sum += static_cast<int64_t>(i); },
        {.max_threads = 4});
    EXPECT_EQ(sum.load(), static_cast<int64_t>(n) *
                              static_cast<int64_t>(n - 1) / 2)
        << n;
  }
}

// --- nesting -----------------------------------------------------------------

TEST(ParallelForTest, NestedParallelForRunsInlineOnTheWorker) {
  // A nested loop must execute on the thread that issued it (no second
  // fan-out), so worker count bounds concurrency even for nested calls.
  const size_t outer = 64;
  const size_t inner = 512;
  std::vector<std::atomic<int>> hits(outer * inner);
  std::atomic<int> nested_offpool{0};
  ParallelFor(
      outer,
      [&](size_t i) {
        EXPECT_TRUE(ThreadPool::InParallelRegion());
        std::thread::id outer_thread = std::this_thread::get_id();
        ParallelFor(
            inner,
            [&, outer_thread](size_t j) {
              if (std::this_thread::get_id() != outer_thread) {
                nested_offpool++;
              }
              hits[i * inner + j]++;
            },
            {.grain = 1, .max_threads = 4});
      },
      {.grain = 1, .max_threads = 4});
  EXPECT_EQ(nested_offpool.load(), 0);
  for (size_t k = 0; k < hits.size(); ++k) EXPECT_EQ(hits[k].load(), 1) << k;
}

// --- exception propagation ---------------------------------------------------

TEST(ParallelForTest, ExceptionPropagatesToTheSubmitter) {
  const size_t n = 5000;
  EXPECT_THROW(
      ParallelFor(
          n,
          [](size_t i) {
            if (i == 4321) throw std::runtime_error("boom at 4321");
          },
          {.grain = 16, .max_threads = 4}),
      std::runtime_error);
  // The pool must stay healthy after a throwing loop.
  std::atomic<int> hits{0};
  ParallelFor(
      n, [&hits](size_t) { hits++; }, {.grain = 64, .max_threads = 4});
  EXPECT_EQ(hits.load(), static_cast<int>(n));
}

TEST(ParallelForTest, ExceptionMessageSurvives) {
  try {
    ParallelFor(
        2048, [](size_t i) { if (i == 0) throw std::runtime_error("first"); },
        {.grain = 256, .max_threads = 2});
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ParallelForTest, SerialFallbackPropagatesToo) {
  EXPECT_THROW(ParallelFor(
                   10, [](size_t) { throw std::logic_error("serial"); },
                   {.max_threads = 1}),
               std::logic_error);
}

// --- thread pool internals ---------------------------------------------------

TEST(ThreadPoolTest, LocalPoolRunsAndJoins) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelRange(hits.size(), 64, 4,
                     [&hits](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) hits[i]++;
                     });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // Destructor joins the workers; reaching the end without hanging is the
  // assertion.
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  std::thread::id self = std::this_thread::get_id();
  std::atomic<int> hits{0};
  pool.ParallelRange(100, 10, 8, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    hits += static_cast<int>(end - begin);
  });
  EXPECT_EQ(hits.load(), 100);
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  pool.EnsureWorkers(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  pool.EnsureWorkers(2);
  EXPECT_EQ(pool.num_workers(), 4u);
  pool.EnsureWorkers(ThreadPool::kMaxWorkers + 100);
  EXPECT_EQ(pool.num_workers(), ThreadPool::kMaxWorkers);
}

TEST(ThreadPoolTest, ManySmallLoopsReuseThePool) {
  // Exercises park/unpark cycles: each loop is tiny, so workers park
  // between submissions.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    ParallelFor(
        512, [&sum](size_t) { sum++; }, {.grain = 32, .max_threads = 4});
    ASSERT_EQ(sum.load(), 512);
  }
}

TEST(ThreadPoolTest, ConcurrentSubmittersVisitEveryIndexOnce) {
  // Liveness under targeted wakes: several submitters race small loops of
  // 2-9 chunks through one pool, so a wake that lands on a busy worker
  // (or on nobody) must still leave every chunk run exactly once.
  ThreadPool pool(4);
  constexpr size_t kSubmitters = 4;
  constexpr size_t kLoops = 300;
  constexpr size_t kGrain = 8;
  std::atomic<size_t> misses{0};
  std::vector<std::thread> submitters;
  for (size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &misses, s] {
      for (size_t loop = 0; loop < kLoops; ++loop) {
        const size_t chunks = 2 + (loop + s) % 8;
        const size_t n = chunks * kGrain - loop % kGrain;
        std::vector<std::atomic<int>> hits(n);
        pool.ParallelRange(n, kGrain, 5, [&hits](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) hits[i]++;
        });
        for (const std::atomic<int>& hit : hits) {
          if (hit.load() != 1) misses++;
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(misses.load(), 0u);
}

TEST(ThreadPoolTest, SubmitterRunsChunkZeroAndRethrowsItsException) {
  ThreadPool pool(4);
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<bool> chunk0_on_submitter{false};
  try {
    pool.ParallelRange(64, 8, 5, [&](size_t begin, size_t) {
      if (begin != 0) return;
      chunk0_on_submitter = std::this_thread::get_id() == self;
      throw std::runtime_error("chunk 0");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
  }
  EXPECT_TRUE(chunk0_on_submitter.load());
  // The pool stays healthy after the submitter's own chunk threw.
  std::atomic<size_t> hits{0};
  pool.ParallelRange(64, 8, 5, [&hits](size_t begin, size_t end) {
    hits += end - begin;
  });
  EXPECT_EQ(hits.load(), 64u);
}

// --- determinism -------------------------------------------------------------

TEST(ParallelForTest, DeterministicAcrossThreadCounts) {
  // Kernels writing distinct slots must produce bit-identical output for
  // any thread count.
  const size_t n = 20000;
  auto run = [n](size_t threads) {
    std::vector<double> out(n);
    ParallelFor(
        n,
        [&out](size_t i) {
          double x = static_cast<double>(i) * 0.37;
          out[i] = x * x - 3.0 * x + 1.0 / (x + 1.0);
        },
        {.grain = 128, .max_threads = threads});
    return out;
  };
  std::vector<double> serial = run(1);
  for (size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(serial, run(threads)) << "threads=" << threads;
  }
}

/// The parallelized kernels must produce bit-identical results to a
/// serial run (they only write distinct slots).
TEST(ParallelForTest, PopularityMatchesSerialComputation) {
  Rng rng(3);
  std::vector<Poi> pois;
  for (PoiId i = 0; i < 3000; ++i) {
    pois.push_back(::csd::testing::MakePoi(
        i, rng.Uniform(0, 5000), rng.Uniform(0, 5000),
        MajorCategory::kShopMarket));
  }
  std::vector<StayPoint> stays;
  for (int i = 0; i < 5000; ++i) {
    stays.emplace_back(Vec2{rng.Uniform(0, 5000), rng.Uniform(0, 5000)}, 0);
  }
  PoiDatabase db(pois);
  PopularityModel parallel_model(db, stays, 100.0);
  // Serial reference.
  for (PoiId i = 0; i < db.size(); ++i) {
    double acc = 0.0;
    for (const StayPoint& sp : stays) {
      double d = Distance(db.poi(i).position, sp.position);
      if (d < 100.0) acc += GaussianCoefficient(d, 100.0);
    }
    EXPECT_NEAR(parallel_model.popularity(i), acc, 1e-9) << i;
  }
}

TEST(ParallelForTest, AnnotationMatchesPerTrajectoryAnnotate) {
  Rng rng(4);
  std::vector<Poi> pois;
  for (PoiId i = 0; i < 200; ++i) {
    pois.push_back(::csd::testing::MakePoi(
        i, rng.Uniform(0, 2000), rng.Uniform(0, 2000),
        static_cast<MajorCategory>(rng.UniformInt(0, 14))));
  }
  PoiDatabase db(pois);
  std::vector<StayPoint> stays;
  for (int i = 0; i < 500; ++i) {
    stays.emplace_back(Vec2{rng.Uniform(0, 2000), rng.Uniform(0, 2000)}, 0);
  }
  CitySemanticDiagram diagram = CsdBuilder().Build(db, stays);
  CsdRecognizer recognizer(&diagram, 100.0);

  SemanticTrajectoryDb batch;
  for (int t = 0; t < 3000; ++t) {
    SemanticTrajectory st;
    st.id = static_cast<TrajectoryId>(t);
    st.stays.emplace_back(
        Vec2{rng.Uniform(0, 2000), rng.Uniform(0, 2000)}, t);
    batch.push_back(st);
  }
  SemanticTrajectoryDb serial = batch;
  recognizer.AnnotateDatabase(&batch);  // pooled path
  for (SemanticTrajectory& st : serial) recognizer.Annotate(&st);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].stays[0].semantic.bits(),
              serial[i].stays[0].semantic.bits());
  }
}

// --- whole-pipeline determinism ---------------------------------------------

/// Full-precision textual dump of a pattern set; byte-equal dumps mean
/// byte-equal patterns.
std::string DumpPatterns(const std::vector<FineGrainedPattern>& patterns) {
  std::ostringstream out;
  out.precision(17);
  out << patterns.size() << " patterns\n";
  for (const FineGrainedPattern& p : patterns) {
    out << "pattern len=" << p.length() << " support=" << p.support() << "\n";
    for (const StayPoint& sp : p.representative) {
      out << " rep " << sp.position.x << " " << sp.position.y << " "
          << sp.time << " " << sp.semantic.bits() << "\n";
    }
    for (const auto& group : p.groups) {
      out << " group";
      for (const StayPoint& sp : group) {
        out << " (" << sp.position.x << "," << sp.position.y << ","
            << sp.time << "," << sp.semantic.bits() << ")";
      }
      out << "\n";
    }
    out << " supporting";
    for (TrajectoryId id : p.supporting) out << " " << id;
    out << "\n";
  }
  return out.str();
}

/// Hexfloat dump of every ApproachMetrics field: %a prints each double
/// exactly, so a reordered floating-point sum cannot compare equal.
std::string DumpMetrics(const ApproachMetrics& m) {
  std::string out = "metrics patterns=" + std::to_string(m.num_patterns) +
                    " coverage=" + std::to_string(m.coverage) + "\n";
  char line[96];
  for (auto [name, value] : {std::pair{"mean_sparsity", m.mean_sparsity},
                             {"mean_consistency", m.mean_consistency},
                             {"consistency_min", m.consistency_min},
                             {"consistency_q1", m.consistency_q1},
                             {"consistency_median", m.consistency_median},
                             {"consistency_q3", m.consistency_q3},
                             {"consistency_max", m.consistency_max}}) {
    std::snprintf(line, sizeof(line), "%s %a\n", name, value);
    out += line;
  }
  out += "sparsity_histogram";
  for (size_t count : m.sparsity_histogram) {
    out += ' ';
    out += std::to_string(count);
  }
  return out + "\n";
}

/// End-to-end CSD-PM run (CSD build + annotation + counterpart-cluster
/// extraction + evaluation) at a fixed dataset seed under `threads`
/// lanes, dumped as patterns followed by metrics.
std::string RunPipeline(size_t threads) {
  SetDefaultParallelism(threads);

  CityConfig city_config;
  city_config.num_pois = 1500;
  city_config.width_m = 6000.0;
  city_config.height_m = 6000.0;
  SyntheticCity city = GenerateCity(city_config);
  TripConfig trip_config;
  trip_config.num_agents = 150;
  trip_config.num_days = 3;
  trip_config.num_communities = 6;
  TripDataset trips = GenerateTrips(city, trip_config);

  PoiDatabase pois(city.pois);
  std::vector<StayPoint> stays = CollectStayPoints(trips.journeys);
  SemanticTrajectoryDb db = JourneysToStayPairs(trips.journeys);
  for (size_t i = 0; i < db.size(); ++i) {
    db[i].id = static_cast<TrajectoryId>(i);
  }

  MinerConfig config;
  config.extraction.support_threshold = 6;
  PervasiveMiner miner(&pois, stays, config);
  SemanticTrajectoryDb annotated = miner.AnnotateFor(RecognizerKind::kCsd, db);
  MiningResult result = miner.ExtractAndEvaluate(
      ExtractorKind::kPervasiveMiner, annotated, config.extraction);

  SetDefaultParallelism(0);
  return DumpPatterns(result.patterns) + DumpMetrics(result.metrics);
}

TEST(PipelineDeterminismTest, CsdPmPatternsIdenticalFor1And4Threads) {
  // Patterns and their evaluation metrics, bit for bit.
  std::string one_thread = RunPipeline(1);
  std::string four_threads = RunPipeline(4);
  EXPECT_FALSE(one_thread.starts_with("0 patterns\n"))
      << "pipeline found no patterns; determinism check is vacuous";
  EXPECT_EQ(one_thread, four_threads);
}

TEST(PipelineDeterminismTest, TracingDoesNotChangePatternsAtAnyThreadCount) {
  // Observability must be write-only: enabling spans and metrics cannot
  // perturb a single output byte, serial or parallel.
  obs::SetEnabled(false);
  std::string plain_one = RunPipeline(1);
  std::string plain_four = RunPipeline(4);

  obs::SetEnabled(true);
  obs::Tracer::Get().Clear();
  std::string traced_one = RunPipeline(1);
  std::string traced_four = RunPipeline(4);
  bool recorded = !obs::Tracer::Get().Snapshot().empty();
  obs::Tracer::Get().Clear();
  obs::SetEnabled(CSD_OBS_DEFAULT_ENABLED != 0);

  EXPECT_TRUE(recorded) << "tracing was on but no spans were recorded; "
                           "the identity check is vacuous";
  EXPECT_EQ(plain_one, traced_one);
  EXPECT_EQ(plain_four, traced_four);
  EXPECT_EQ(plain_one, plain_four);
}

}  // namespace
}  // namespace csd
