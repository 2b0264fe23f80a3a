#ifndef CSD_CORE_STAGE_GRAPH_H_
#define CSD_CORE_STAGE_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "poi/poi_database.h"
#include "util/check.h"
#include "util/parallel.h"

namespace csd {

/// Builds a CSR of per-POI in-range lists over `pois`, in ForEachInRange
/// enumeration order (the order every stage consumer expects).
/// `emit(pid, found, keep)` filters one (pid, found) pair and calls
/// keep(found) for each entry it stores. With workers a count pass sizes
/// one flat array and a fill pass writes each POI's disjoint range; on a
/// serial pool one appending pass builds the identical block without
/// running every query twice. Offsets are narrowed with CheckedOffset32.
template <typename Emit>
void BuildRangeCsr(const PoiDatabase& pois, double radius,
                   std::vector<uint32_t>& offsets, std::vector<PoiId>& flat,
                   Emit emit) {
  size_t n = pois.size();
  offsets.assign(n + 1, 0);
  flat.clear();
  if (DefaultParallelism() > 1) {
    ParallelFor(
        n,
        [&](size_t pid) {
          size_t count = 0;
          pois.ForEachInRange(pois.poi(static_cast<PoiId>(pid)).position,
                              radius, [&](PoiId found) {
                                emit(static_cast<PoiId>(pid), found,
                                     [&](PoiId) { ++count; });
                              });
          offsets[pid + 1] = CheckedOffset32(count);
        },
        {.grain = 64});
    size_t total = 0;
    for (size_t pid = 0; pid < n; ++pid) {
      total += offsets[pid + 1];
      offsets[pid + 1] = CheckedOffset32(total);
    }
    flat.resize(total);
    ParallelFor(
        n,
        [&](size_t pid) {
          size_t w = offsets[pid];
          pois.ForEachInRange(pois.poi(static_cast<PoiId>(pid)).position,
                              radius, [&](PoiId found) {
                                emit(static_cast<PoiId>(pid), found,
                                     [&](PoiId kept) { flat[w++] = kept; });
                              });
        },
        {.grain = 64});
  } else {
    for (size_t pid = 0; pid < n; ++pid) {
      pois.ForEachInRange(
          pois.poi(static_cast<PoiId>(pid)).position, radius,
          [&](PoiId found) {
            emit(static_cast<PoiId>(pid), found,
                 [&](PoiId kept) { flat.push_back(kept); });
          });
      offsets[pid + 1] = CheckedOffset32(flat.size());
    }
  }
}

/// ε_p-neighborhoods exactly as Algorithm 1 consumes them: everything in
/// range at clustering.eps, the POI itself included.
inline void BuildEpsCsr(const PoiDatabase& pois, double eps,
                        std::vector<uint32_t>& offsets,
                        std::vector<PoiId>& flat) {
  BuildRangeCsr(pois, eps, offsets, flat,
                [](PoiId, PoiId found, auto&& keep) { keep(found); });
}

/// Merge proximity lists exactly as unit merging consumes them: every
/// `other > pid` within merging.neighbor_distance.
inline void BuildMergeCsr(const PoiDatabase& pois, double neighbor_distance,
                          std::vector<uint32_t>& offsets,
                          std::vector<PoiId>& flat) {
  BuildRangeCsr(pois, neighbor_distance, offsets, flat,
                [](PoiId pid, PoiId found, auto&& keep) {
                  if (found > pid) keep(found);
                });
}

/// The POI set one stage call works on, with a dense local numbering so
/// per-POI scratch is sized by the set, never by the city. `pois` is in
/// ascending id order. With `slot_of` set, POI p maps to
/// slot_of[p] - base (a component's slice of ComponentIndex::order);
/// without it the set is all of [0, n) and p maps to itself.
///
/// The set must be closed under the stage graph (every ε or merge
/// neighbor of a member is a member) — one or more whole components of
/// the ε∪merge graph, or the whole city.
struct StageDomain {
  std::span<const PoiId> pois;
  const uint32_t* slot_of = nullptr;
  uint32_t base = 0;

  size_t size() const { return pois.size(); }
  uint32_t Local(PoiId pid) const {
    return slot_of != nullptr ? slot_of[pid] - base : pid;
  }
};

}  // namespace csd

#endif  // CSD_CORE_STAGE_GRAPH_H_
