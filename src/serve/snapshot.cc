#include "serve/snapshot.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/trace.h"
#include "shard/sharded_build.h"
#include "traj/journey.h"
#include "util/check.h"
#include "util/parallel.h"

namespace csd::serve {

namespace {

// Liveness stamp: XORed with the version while the snapshot is alive,
// overwritten with the poison value by the destructor. A reader that sees
// anything else is looking at a torn or reclaimed snapshot.
constexpr uint64_t kLiveStamp = 0x5ca1ab1e0ddba11ull;
constexpr uint64_t kDeadStamp = 0xdeadbeefdeadbeefull;

std::atomic<uint64_t>& LiveCounter() {
  static std::atomic<uint64_t> count{0};
  return count;
}

}  // namespace

std::shared_ptr<const ServeDataset> MakeServeDataset(
    std::vector<Poi> pois, const std::vector<TaxiJourney>& journeys) {
  std::vector<StayPoint> stays = CollectStayPoints(journeys);
  SemanticTrajectoryDb db = JourneysToStayPairs(journeys);
  SemanticTrajectoryDb linked = LinkJourneys(journeys, {});
  db.insert(db.end(), linked.begin(), linked.end());
  for (size_t i = 0; i < db.size(); ++i) {
    db[i].id = static_cast<TrajectoryId>(i);
  }
  return std::make_shared<const ServeDataset>(std::move(pois),
                                              std::move(stays),
                                              std::move(db));
}

std::shared_ptr<const ServeDataset> MakeShardDataset(
    const ServeDataset& full, const shard::ShardPlan& plan, size_t shard,
    std::shared_ptr<const PoiDatabase> tile_pois) {
  BoundingBox halo = plan.HaloBounds(shard);
  BoundingBox tile = plan.TileBounds(shard);

  if (tile_pois == nullptr) {
    std::vector<Poi> pois;
    for (PoiId pid = 0; pid < full.pois.size(); ++pid) {
      const Poi& poi = full.pois.poi(pid);
      if (halo.Contains(poi.position)) pois.push_back(poi);
    }
    tile_pois = std::make_shared<const PoiDatabase>(std::move(pois));
  }
  std::vector<StayPoint> stays;
  for (const StayPoint& sp : full.stays) {
    if (halo.Contains(sp.position)) stays.push_back(sp);
  }
  // A trajectory belongs to the shard that owns any of its stays — the
  // tile proper, not the halo, so every trajectory lands somewhere and
  // straddlers are mined by each tile they visit.
  SemanticTrajectoryDb db;
  for (const SemanticTrajectory& traj : full.trajectories) {
    bool owned = false;
    for (const StayPoint& sp : traj.stays) {
      if (tile.Contains(sp.position)) {
        owned = true;
        break;
      }
    }
    if (owned) db.push_back(traj);
  }
  for (size_t i = 0; i < db.size(); ++i) {
    db[i].id = static_cast<TrajectoryId>(i);
  }
  return std::make_shared<const ServeDataset>(std::move(tile_pois),
                                              std::move(stays), std::move(db),
                                              full.decay_as_of);
}

namespace {

// The dataset's publish-time decay instant takes precedence over the
// builder's "newest stay" fallback (a tile cut's newest stay is not the
// city's), unless the caller pinned an explicit as_of.
void AdoptDatasetDecayInstant(SnapshotOptions& opts,
                              const ServeDataset& data) {
  auto& decay = opts.miner.csd.decay;
  if (decay.enabled() && decay.as_of == 0 && data.decay_as_of != 0) {
    decay.as_of = data.decay_as_of;
  }
}

}  // namespace

CsdSnapshot::CsdSnapshot(std::shared_ptr<const ServeDataset> data,
                         const SnapshotOptions& options,
                         const shard::ShardPlan& plan)
    : data_(std::move(data)), stamp_(kLiveStamp) {
  CSD_CHECK(data_ != nullptr);
  CSD_TRACE_SPAN("serve/snapshot_build_sharded");
  plan_ = std::make_unique<shard::ShardPlan>(plan);

  SnapshotOptions opts = options;
  opts.miner.build_roi_baseline = false;  // serving never queries ROI
  AdoptDatasetDecayInstant(opts, *data_);
  if (plan_->num_shards() == 1) {  // K=1: the monolithic stage pass
    miner_ = std::make_unique<PervasiveMiner>(&data_->pois, data_->stays,
                                              opts.miner);
    FinishInit(opts);
    return;
  }
  if (opts.miner.extraction.seq_shard_lanes == 0) {
    opts.miner.extraction.seq_shard_lanes = plan_->num_shards();
  }
  CitySemanticDiagram diagram = shard::ShardedCsdBuild(
      data_->pois, data_->stays, *plan_, opts.miner.csd);
  miner_ = std::make_unique<PervasiveMiner>(&data_->pois, data_->stays,
                                            opts.miner, std::move(diagram));

  double radius = miner_->csd_recognizer().radius();
  // The subset annotators are only exact for in-tile queries when every
  // candidate within R₃σ of a tile point is inside the halo.
  CSD_CHECK_MSG(plan_->halo() >= radius,
                "shard halo narrower than the annotation radius");
  // One annotator per shard, each built on its own lane into its own slot.
  shard_annotators_.resize(plan_->num_shards());
  ParallelFor(
      plan_->num_shards(),
      [&](size_t s) {
        BoundingBox halo = plan_->HaloBounds(s);
        std::vector<PoiId> subset;
        for (PoiId pid = 0; pid < data_->pois.size(); ++pid) {
          if (halo.Contains(data_->pois.poi(pid).position)) {
            subset.push_back(pid);
          }
        }
        shard_annotators_[s] = std::make_unique<BatchCsdAnnotator>(
            &miner_->diagram(), radius, subset);
      },
      {.grain = 1});
  FinishInit(opts);
}

CsdSnapshot::CsdSnapshot(std::shared_ptr<const ServeDataset> data,
                         const SnapshotOptions& options,
                         CitySemanticDiagram diagram)
    : data_(std::move(data)), stamp_(kLiveStamp) {
  CSD_CHECK(data_ != nullptr);
  CSD_TRACE_SPAN("serve/snapshot_adopt_diagram");
  CSD_CHECK_MSG(&diagram.pois() == &data_->pois,
                "adopted diagram built over a different POI database");
  SnapshotOptions opts = options;
  opts.miner.build_roi_baseline = false;
  miner_ = std::make_unique<PervasiveMiner>(&data_->pois, data_->stays,
                                            opts.miner, std::move(diagram));
  FinishInit(opts);
}

void CsdSnapshot::FinishInit(const SnapshotOptions& options) {
  annotator_ = std::make_unique<BatchCsdAnnotator>(
      &miner_->diagram(), miner_->csd_recognizer().radius());
  if (options.mine_patterns) {
    patterns_ = miner_->MinePatterns(data_->trajectories);
  }

  // Invert patterns → units: every representative stay votes once per
  // pattern (RecognizeWithUnit is the same kernel the request path runs,
  // so lookup-by-unit agrees with annotation-by-position).
  std::vector<std::pair<UnitId, uint32_t>> unit_pattern;
  for (uint32_t id = 0; id < patterns_.size(); ++id) {
    for (const StayPoint& sp : patterns_[id].representative) {
      UnitId unit = kNoUnit;
      recognizer().RecognizeWithUnit(sp.position, &unit);
      if (unit != kNoUnit) unit_pattern.emplace_back(unit, id);
    }
  }
  std::sort(unit_pattern.begin(), unit_pattern.end());
  unit_pattern.erase(std::unique(unit_pattern.begin(), unit_pattern.end()),
                     unit_pattern.end());

  size_t num_units = diagram().num_units();
  unit_pattern_offsets_.assign(num_units + 1, 0);
  unit_pattern_ids_.reserve(unit_pattern.size());
  for (const auto& [unit, id] : unit_pattern) {
    unit_pattern_offsets_[unit + 1]++;
    unit_pattern_ids_.push_back(id);
  }
  for (size_t u = 0; u < num_units; ++u) {
    unit_pattern_offsets_[u + 1] += unit_pattern_offsets_[u];
  }

  LiveCounter().fetch_add(1, std::memory_order_relaxed);
}

CsdSnapshot::~CsdSnapshot() {
  stamp_ = kDeadStamp;
  LiveCounter().fetch_sub(1, std::memory_order_relaxed);
}

std::span<const uint32_t> CsdSnapshot::PatternsForUnit(UnitId unit) const {
  if (unit >= diagram().num_units()) return {};
  return std::span<const uint32_t>(unit_pattern_ids_)
      .subspan(unit_pattern_offsets_[unit],
               unit_pattern_offsets_[unit + 1] - unit_pattern_offsets_[unit]);
}

bool CsdSnapshot::CheckIntegrity() const {
  return stamp_ == (kLiveStamp ^ version_) &&
         unit_pattern_offsets_.size() == diagram().num_units() + 1 &&
         unit_pattern_offsets_.back() == unit_pattern_ids_.size();
}

uint64_t CsdSnapshot::LiveCount() {
  return LiveCounter().load(std::memory_order_relaxed);
}

void CsdSnapshot::StampVersion(uint64_t version) {
  version_ = version;
  stamp_ = kLiveStamp ^ version;
}

}  // namespace csd::serve
