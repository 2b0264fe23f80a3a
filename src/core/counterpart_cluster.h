#ifndef CSD_CORE_COUNTERPART_CLUSTER_H_
#define CSD_CORE_COUNTERPART_CLUSTER_H_

#include <vector>

#include "core/pattern.h"
#include "seqmine/prefix_span.h"
#include "traj/trajectory.h"

namespace csd {

/// Parameters shared by all three pattern extractors (Section 5's σ, δ_t,
/// ρ) plus the knobs of the sequential-mining and clustering substrates.
struct ExtractionOptions {
  /// σ: minimum number of supporting trajectories per pattern.
  size_t support_threshold = 50;

  /// δ_t: maximum time interval between adjacent stay points (seconds).
  Timestamp temporal_constraint = 60 * kSecondsPerMinute;

  /// ρ: minimum spatial density of every per-position group (points/m²).
  double density_threshold = 0.002;

  /// Length bounds of the PrefixSpan coarse patterns.
  size_t min_pattern_length = 2;
  size_t max_pattern_length = 5;

  /// Mine only closed coarse patterns (drop sub-patterns that carry no
  /// extra support) — trims redundant fine-grained patterns that differ
  /// only by omitting a stop.
  bool closed_patterns = false;

  /// OPTICS neighborhood cap for the per-position clustering.
  double optics_max_eps = 500.0;

  /// When > 0, mine the coarse PrefixSpan patterns in this many sharded
  /// lanes (PrefixSpanSharded): top-level subtrees split into contiguous
  /// lane groups that run concurrently and merge deterministically.
  /// Output is byte-identical to the default miner for any value; a
  /// sharded CSD build sets this to its shard count.
  size_t seq_shard_lanes = 0;
};

/// A coarse semantic pattern: one PrefixSpan pattern together with the
/// per-trajectory embeddings (which stay points realize each position).
struct CoarsePattern {
  /// O = o_1..o_m: the semantic property of each position.
  std::vector<SemanticProperty> semantics;

  struct Member {
    TrajectoryId trajectory;
    size_t db_index;                 // index into the mined database
    std::vector<size_t> stay_index;  // Pt^k positions within the trajectory
  };
  std::vector<Member> members;

  size_t length() const { return semantics.size(); }
  size_t support() const { return members.size(); }
};

/// Stage 1 of Pattern Extraction: PrefixSpan over the semantic-property
/// sequences of `db` (each stay point's tag set is one item; stay points
/// with empty semantics are transparent to the mining), yielding coarse
/// patterns with their leftmost embeddings.
std::vector<CoarsePattern> MineCoarsePatterns(
    const SemanticTrajectoryDb& db, const ExtractionOptions& options);

/// Algorithm 4 — CounterpartCluster: refines every coarse pattern into
/// fine-grained ones. Per position k the members' k-th stay points are
/// clustered with parameter-free OPTICS; each seed trajectory then gathers
/// the members that share its cluster at every position, survive the δ_t
/// gap check and keep the per-position group density above ρ; groups of
/// size ≥ σ are emitted as fine-grained patterns (representative = member
/// closest to the group centroid, timestamp = group average).
std::vector<FineGrainedPattern> RefineByCounterpartCluster(
    const CoarsePattern& coarse, const SemanticTrajectoryDb& db,
    const ExtractionOptions& options);

/// End-to-end Pattern Extractor of Pervasive Miner:
/// MineCoarsePatterns + RefineByCounterpartCluster over every coarse
/// pattern, refined in parallel and emitted in coarse-pattern order.
std::vector<FineGrainedPattern> CounterpartClusterExtract(
    const SemanticTrajectoryDb& db, const ExtractionOptions& options);

}  // namespace csd

#endif  // CSD_CORE_COUNTERPART_CLUSTER_H_
