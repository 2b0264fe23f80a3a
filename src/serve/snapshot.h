#ifndef CSD_SERVE_SNAPSHOT_H_
#define CSD_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/batch_annotator.h"
#include "core/pattern.h"
#include "miner/pervasive_miner.h"
#include "poi/poi_database.h"
#include "serve/request.h"
#include "shard/shard_plan.h"
#include "traj/journey.h"

namespace csd::serve {

/// One dataset generation: the POI database plus the movement evidence a
/// full PervasiveMiner run needs. Immutable once constructed; snapshots
/// and queued rebuilds share it by shared_ptr, so a rebuild on fresh data
/// never copies the old generation and the old generation dies with the
/// last snapshot that references it.
///
/// The POI set P is fixed while stays stream in, so the database is
/// itself shared: every generation a stream publishes points at the
/// bootstrap's `poi_db` (no Poi copy, no grid rebuild per tick), and a
/// shard lane reuses the tile database it cut from that city database
/// until the city database changes (ServeService::TriggerShardRebuild).
struct ServeDataset {
  std::shared_ptr<const PoiDatabase> poi_db;
  const PoiDatabase& pois;               // *poi_db
  std::vector<StayPoint> stays;          // popularity evidence (Eq. 3)
  SemanticTrajectoryDb trajectories;     // pattern-mining input

  /// The decay evaluation instant of this generation (stream watermark at
  /// publish time), or 0 for batch datasets. When set it overrides the
  /// "newest stay" resolution of PopularityDecayOptions::as_of, so every
  /// tile rebuild of the generation — and the batch oracle replaying it —
  /// decays against the same clock. Ignored while decay is off.
  Timestamp decay_as_of = 0;

  /// Builds a fresh POI database (grid index included) over `pois_in`.
  ServeDataset(std::vector<Poi> pois_in, std::vector<StayPoint> stays_in,
               SemanticTrajectoryDb trajectories_in,
               Timestamp decay_as_of_in = 0)
      : ServeDataset(std::make_shared<const PoiDatabase>(std::move(pois_in)),
                     std::move(stays_in), std::move(trajectories_in),
                     decay_as_of_in) {}

  /// Shares an existing POI database (non-null) with other generations.
  ServeDataset(std::shared_ptr<const PoiDatabase> poi_db_in,
               std::vector<StayPoint> stays_in,
               SemanticTrajectoryDb trajectories_in,
               Timestamp decay_as_of_in = 0)
      : poi_db(std::move(poi_db_in)),
        pois(*poi_db),
        stays(std::move(stays_in)),
        trajectories(std::move(trajectories_in)),
        decay_as_of(decay_as_of_in) {}

  ServeDataset(const ServeDataset&) = delete;
  ServeDataset& operator=(const ServeDataset&) = delete;
};

/// Builds a ServeDataset from raw taxi journeys the way the batch
/// pipeline does: stay points from every pick-up/drop-off, and a
/// trajectory DB of stay pairs plus card-linked multi-stop journeys.
std::shared_ptr<const ServeDataset> MakeServeDataset(
    std::vector<Poi> pois, const std::vector<TaxiJourney>& journeys);

/// Cuts one shard's tile-local dataset out of a full-city generation:
/// POIs and stays inside the shard's halo bounds (re-numbered densely, in
/// ascending global id / input order), and the trajectories owning at
/// least one stay inside the tile proper. A shard rebuild lane builds its
/// tile-local generation from the result at ~1/K of the city's cost
/// (ServeService::TriggerShardRebuild).
/// Tile-local annotation near the halo fringe may differ from the
/// full-city build (eps-chains can cross halos); the byte-identity
/// guarantee belongs to the full sharded build, not to tile rebuilds.
///
/// `tile_pois`, when non-null, must be this shard's POI database from an
/// earlier cut of the same `full.poi_db`: it is shared as-is, so the cut
/// only filters stays and trajectories and never scans the city's POIs.
std::shared_ptr<const ServeDataset> MakeShardDataset(
    const ServeDataset& full, const shard::ShardPlan& plan, size_t shard,
    std::shared_ptr<const PoiDatabase> tile_pois = nullptr);

/// Knobs of one snapshot construction.
struct SnapshotOptions {
  MinerConfig miner;

  /// Mine fine-grained patterns and build the unit→pattern index at
  /// construction (QueryPatternsByUnit needs it). Off for annotate-only
  /// deployments, where it saves the extraction stage per rebuild.
  bool mine_patterns = true;
};

/// An immutable, versioned serving generation: the CSD (via an owned
/// PervasiveMiner, whose recognizer is the dense-scratch voting kernel of
/// Algorithm 3), the mined fine-grained patterns, and a CSR unit→pattern
/// index. Construction does the full build; once the store stamps the
/// version on publish nothing mutates, so any number of request threads
/// may read it without synchronization.
///
/// Heap-only and pinned (no copy/move): the recognizer holds interior
/// pointers into the miner, so the object must never relocate.
class CsdSnapshot {
 public:
  /// The build constructor, the one a full ServeService rebuild
  /// publishes: the diagram comes from shard::ShardedCsdBuild over `plan`
  /// (byte-identical to the monolithic build, constructed tile-by-tile),
  /// pattern mining runs with num_shards PrefixSpan lanes, and a
  /// per-shard subset annotator is built for every tile so geo-routed
  /// batches touch only their shard's halo slice of the grid. A 1×1 plan
  /// is the monolithic case: it runs the monolithic stage pass (a
  /// one-tile build would be one serial pool task) and its one shard
  /// annotates through the city-wide annotator (a subset annotator would
  /// be a second full-city grid). The ROI baseline recognizer is skipped
  /// in both snapshot ctors (serving never annotates through it), so
  /// build timings compare like with like.
  CsdSnapshot(std::shared_ptr<const ServeDataset> data,
              const SnapshotOptions& options, const shard::ShardPlan& plan);

  /// Adopts an already-built diagram instead of running the construction
  /// stages — a shard rebuild lane's in-tile engine
  /// (core/incremental_csd.h) materializes the tile's diagram itself and
  /// only needs the serving shell (annotator, patterns, unit→pattern
  /// index) wrapped around it. The diagram must have been built over
  /// `data->pois`.
  CsdSnapshot(std::shared_ptr<const ServeDataset> data,
              const SnapshotOptions& options, CitySemanticDiagram diagram);

  ~CsdSnapshot();

  CsdSnapshot(const CsdSnapshot&) = delete;
  CsdSnapshot& operator=(const CsdSnapshot&) = delete;

  /// Version stamped by ShardedSnapshotStore's publish; 0 until
  /// published. The store's release-store makes the stamp visible to
  /// every reader that acquired the snapshot through it.
  uint64_t version() const { return version_; }

  const ServeDataset& data() const { return *data_; }
  std::shared_ptr<const ServeDataset> shared_data() const { return data_; }
  const CitySemanticDiagram& diagram() const { return miner_->diagram(); }
  const CsdRecognizer& recognizer() const {
    return miner_->csd_recognizer();
  }

  /// The SIMD/SoA edition of the voting recognizer, built over the same
  /// diagram with the same radius — byte-identical results to
  /// recognizer() (core/batch_annotator.h). The request path annotates
  /// through this; recognizer() remains the parity oracle.
  const BatchCsdAnnotator& annotator() const { return *annotator_; }

  /// The shard plan this snapshot was built under, or nullptr for an
  /// adopted diagram (a tile-local rebuild snapshot).
  const shard::ShardPlan* plan() const { return plan_.get(); }

  /// Annotator for stays routed to shard `s`: the tile's subset annotator
  /// in plan mode with K > 1 (byte-identical to annotator() for any
  /// in-tile query, see core/batch_annotator.h); annotator() itself at
  /// K=1 and for adopted tile diagrams (a tile-local rebuild's annotator
  /// already covers exactly its shard's halo).
  const BatchCsdAnnotator& annotator_for_shard(size_t s) const {
    return shard_annotators_.empty() ? *annotator_ : *shard_annotators_[s];
  }

  std::span<const FineGrainedPattern> patterns() const { return patterns_; }
  const FineGrainedPattern& pattern(uint32_t id) const {
    return patterns_[id];
  }

  /// Ids (into patterns()) of the fine-grained patterns with at least one
  /// representative stay recognized in `unit`; empty for out-of-range ids.
  std::span<const uint32_t> PatternsForUnit(UnitId unit) const;

  /// Cross-field invariants every reader may assert: the liveness stamp
  /// matches the version and the unit→pattern CSR is self-consistent. A
  /// torn publish or a read of a destructed snapshot fails this (the
  /// destructor poisons the stamp); the tsan lifecycle test hammers it.
  bool CheckIntegrity() const;

  /// Number of CsdSnapshot instances currently alive — the reclamation
  /// assertion of the snapshot lifecycle test.
  static uint64_t LiveCount();

 private:
  friend class ShardedSnapshotStore;
  void StampVersion(uint64_t version);
  /// Shared tail of both ctors: the city-wide annotator, pattern mining
  /// and the unit→pattern CSR.
  void FinishInit(const SnapshotOptions& options);

  std::shared_ptr<const ServeDataset> data_;
  std::unique_ptr<shard::ShardPlan> plan_;
  std::unique_ptr<PervasiveMiner> miner_;
  std::unique_ptr<BatchCsdAnnotator> annotator_;
  /// Plan mode only: shard_annotators_[s] votes over shard s's halo POIs.
  std::vector<std::unique_ptr<BatchCsdAnnotator>> shard_annotators_;
  std::vector<FineGrainedPattern> patterns_;
  // CSR: unit u owns pattern ids unit_pattern_ids_[offsets_[u]..offsets_[u+1]).
  std::vector<uint32_t> unit_pattern_offsets_;
  std::vector<uint32_t> unit_pattern_ids_;
  uint64_t version_ = 0;
  uint64_t stamp_ = 0;
};

}  // namespace csd::serve

#endif  // CSD_SERVE_SNAPSHOT_H_
