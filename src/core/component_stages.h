#ifndef CSD_CORE_COMPONENT_STAGES_H_
#define CSD_CORE_COMPONENT_STAGES_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/city_semantic_diagram.h"
#include "core/stage_graph.h"

namespace csd {

/// The ε_p-neighbor and merge-proximity CSRs the decision stages read,
/// in the CsdStageCaches layout (pois.size() + 1 offsets each).
struct StageGraph {
  std::span<const uint32_t> eps_offsets;
  std::span<const PoiId> eps_flat;
  std::span<const uint32_t> merge_offsets;
  std::span<const PoiId> merge_flat;
};

/// Connected components of the ε∪merge proximity graph: two POIs are
/// connected when one's ε_p-neighborhood or merge-proximity list holds
/// the other. Algorithm 1's greedy expansion never crosses an ε-component
/// and merge edges never cross a component of the union graph, so each
/// component clusters, purifies and merges independently of every other
/// — the independence the component stage runner below is built on.
///
/// Components are numbered by their smallest POI; `order` lists the POIs
/// component-major, ascending inside each component, and `slot_of` is its
/// inverse. The index is a pure function of the graph.
struct ComponentIndex {
  std::vector<uint32_t> component_of;  // POI → component
  std::vector<uint32_t> offsets;       // component → range of `order`
  std::vector<PoiId> order;
  std::vector<uint32_t> slot_of;  // POI → its position in `order`

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  size_t size_of(uint32_t c) const { return offsets[c + 1] - offsets[c]; }
  /// Component c as a stage domain (POIs ascending, dense local slots).
  StageDomain domain(uint32_t c) const {
    return StageDomain{.pois = std::span<const PoiId>(order).subspan(
                           offsets[c], size_of(c)),
                       .slot_of = slot_of.data(),
                       .base = offsets[c]};
  }
};

/// Builds the component index of `graph` with a lock-free union-find over
/// the POIs, in parallel on the shared pool. Links always hang the larger
/// root under the smaller, so every root is its component's smallest POI
/// and the result does not depend on the thread count. When ε_p is no
/// wider than the merge distance every ε edge is also a merge edge and
/// the ε lists are skipped (and may be absent). Records csd_build_components_total and the
/// csd_build_component_pois histogram.
ComponentIndex BuildComponentIndex(const StageGraph& graph,
                                   const CsdBuildOptions& options);

/// One kept semantic unit of a staged run, before it becomes a
/// SemanticUnit: its POIs and its canonical splice key — the key of its
/// smallest merge node. A purified unit's node keys as (seed POI of its
/// coarse cluster, block index in that cluster's purification output), an
/// absorbed singleton's as (POI id); every purified unit orders before
/// every singleton. That is the node numbering of one serial pass over
/// the whole city (clusters ascend by seed, purified units are
/// cluster-major, singletons follow in POI order), so units sorted by key
/// are exactly the serial pass's unit order.
struct StagedUnit {
  uint64_t key = 0;
  std::vector<PoiId> pois;
};

/// The component-keyed stage runner: clustering → purification → merging
/// over the listed components (ascending ids), returning the kept units
/// ascending by key. Whole components are binned into about four batches
/// per pool lane; each batch runs the stages component by component into
/// its own slot (one ParallelFor for clustering and purification, a
/// second for merging), so the cost of a batch is proportional to its
/// own POIs. The batches are then spliced by key, which makes the output
/// byte-identical at any thread count and batching. `before_merging`,
/// when set, runs between the two passes, and `graph` is read again
/// after it: the clustering pass reads only the ε lists and the merging
/// pass only the merge lists, so an owner of the CSRs frees the former
/// and (re)builds the latter there, never holding both.
///
/// Emits the csd_build/{popularity_clustering,purification,unit_merging}
/// spans once per batch, on whichever thread runs the batch.
std::vector<StagedUnit> RunComponentStages(
    const PoiDatabase& pois, const PopularityModel& popularity,
    const CsdBuildOptions& options, const StageGraph& graph,
    const ComponentIndex& index, std::span<const uint32_t> components,
    const std::function<void()>& before_merging = {});

/// Turns staged units (ascending by key) into the diagram, building the
/// SemanticUnits in parallel, one slot each.
CitySemanticDiagram AssembleDiagram(const PoiDatabase& pois,
                                    const PopularityModel& popularity,
                                    std::vector<StagedUnit> units);

}  // namespace csd

#endif  // CSD_CORE_COMPONENT_STAGES_H_
