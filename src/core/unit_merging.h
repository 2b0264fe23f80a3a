#ifndef CSD_CORE_UNIT_MERGING_H_
#define CSD_CORE_UNIT_MERGING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/semantic_unit.h"
#include "core/stage_graph.h"

namespace csd {

/// Parameters of the Semantic Unit Merging step (Section 4.1).
struct MergingOptions {
  /// Two nearby units merge when the cosine similarity of their semantic
  /// distributions (Equation (8)) reaches this bound (paper: 0.9).
  double cosine_threshold = 0.9;

  /// Units are "nearby" when some pair of their POIs lies within this
  /// distance (fragments separated by pedestrian streets / squares).
  double neighbor_distance = 60.0;

  /// Treat the POIs Algorithm 1 left unclustered as singleton units that
  /// may merge into similar neighbors (the paper's p16 example).
  bool absorb_unclustered = true;

  /// Unclustered singletons that merged with nothing are dropped from the
  /// CSD (they stayed outside every cluster in the paper's Figure 3(b)).
  /// Units that contain at least one clustered POI are always kept.
  bool keep_unmerged_singletons = false;
};

/// The node universe of one merging run, in CSR layout: node i's POIs
/// are pois[offsets[i], offsets[i + 1]). Nodes [0, num_clustered) are
/// purified units, the rest absorbed singletons.
struct MergeNodes {
  std::span<const uint32_t> offsets;
  std::span<const PoiId> pois;
  size_t num_clustered = 0;

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
};

/// The kept merge groups of one run, in CSR layout: group g's POIs are
/// pois[offsets[g], offsets[g + 1]), concatenated in node order, and
/// root[g] is its smallest node. Groups are ordered by root.
struct MergedUnits {
  std::vector<uint32_t> root;
  std::vector<uint32_t> offsets;
  std::vector<PoiId> pois;

  size_t size() const { return root.size(); }
  std::span<const PoiId> unit(size_t g) const {
    return std::span<const PoiId>(pois).subspan(offsets[g],
                                                offsets[g + 1] - offsets[g]);
  }
};

/// The merging fixpoint over `nodes`, whose POIs all lie in `domain`
/// (core/stage_graph.h); `nb_offsets`/`nb_flat` is the merge proximity
/// CSR over the whole database. Replaces `out` with the kept groups
/// (never-merged leftover singletons are dropped unless
/// keep_unmerged_singletons). Both orders in the output — groups by their
/// smallest node, members ascending — depend only on the node order, so
/// a run over a node subset relates to the full run by the order
/// isomorphism the component stage runner (core/component_stages.h)
/// splices on. Work and per-thread scratch are proportional to the
/// nodes' POIs.
void SemanticUnitMergingOn(const MergeNodes& nodes, const StageDomain& domain,
                           const PoiDatabase& pois,
                           const PopularityModel& popularity,
                           const MergingOptions& options,
                           std::span<const uint32_t> nb_offsets,
                           std::span<const PoiId> nb_flat, MergedUnits& out);

/// Semantic Unit Merging: combines fragments of semantically similar,
/// spatially adjacent units into bigger units, and absorbs leftover POIs.
/// Implemented as an iterated union-find over the unit adjacency graph:
/// each pass merges every adjacent pair whose distribution cosine clears
/// the threshold, then distributions are recomputed, until a fixpoint.
///
/// Returns the final units as POI-id sets, ready to become the CSD. The
/// node universe is the purified units in input order, then (when
/// absorb_unclustered) the leftover singletons in input order. Units are
/// ordered by their smallest node and each unit's POIs are concatenated
/// in node order — a pure function of the input, identical across
/// platforms, thread counts and standard-library hash implementations.
///
/// `nb_offsets`/`nb_flat` optionally inject a precomputed proximity cache
/// in CSR layout (offsets has pois.size() + 1 entries; each POI's list is
/// every `other` that `pois.ForEachInRange(position, neighbor_distance)`
/// yields with `other > pid`, in enumeration order). When empty the cache
/// is built internally (BuildMergeCsr, core/stage_graph.h).
std::vector<std::vector<PoiId>> SemanticUnitMerging(
    const std::vector<std::vector<PoiId>>& purified_units,
    const std::vector<PoiId>& unclustered, const PoiDatabase& pois,
    const PopularityModel& popularity, const MergingOptions& options,
    std::span<const uint32_t> nb_offsets = {},
    std::span<const PoiId> nb_flat = {});

}  // namespace csd

#endif  // CSD_CORE_UNIT_MERGING_H_
