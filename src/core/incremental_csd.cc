#include "core/incremental_csd.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/parallel.h"

namespace csd {

namespace {

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<size_t> parent_;
};

bool SameStay(const StayPoint& a, const StayPoint& b) {
  return a.time == b.time && a.position.x == b.position.x &&
         a.position.y == b.position.y;
}

/// Every POI field a construction stage reads: the id, the position the
/// range queries and Eq. 3 see, and the category purification and
/// merging compare.
bool SamePois(const std::vector<Poi>& a, const std::vector<Poi>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Poi& x, const Poi& y) {
                      return x.id == y.id && x.position.x == y.position.x &&
                             x.position.y == y.position.y &&
                             x.minor == y.minor;
                    });
}

/// Builds a CSR of per-POI in-range lists over the tile database, in
/// ForEachInRange enumeration order (the order every injected-cache
/// consumer expects). `emit` filters/transforms one (pid, found) pair.
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
          offsets[pid + 1] = static_cast<uint32_t>(count);
        },
        {.grain = 64});
    for (size_t pid = 0; pid < n; ++pid) offsets[pid + 1] += offsets[pid];
    flat.resize(offsets[n]);
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
      offsets[pid + 1] = static_cast<uint32_t>(flat.size());
    }
  }
}

}  // namespace

IncrementalTileCsd::IncrementalTileCsd(Options options)
    : options_(std::move(options)) {
  CSD_CHECK_MSG(options_.churn_threshold >= 0.0,
                "churn threshold must be non-negative");
}

uint64_t IncrementalTileCsd::NodeKey(bool unclustered, uint32_t a,
                                     uint32_t b) {
  CSD_DCHECK(a < (1u << 31) && b < (1u << 31));
  return (static_cast<uint64_t>(unclustered) << 62) |
         (static_cast<uint64_t>(a) << 31) | b;
}

void IncrementalTileCsd::BuildConnectivity(const PoiDatabase& pois) {
  size_t n = pois.size();
  // ε_p-neighborhoods exactly as PopularityBasedClustering expects them
  // injected: everything in range, the POI itself included.
  BuildRangeCsr(pois, options_.build.clustering.eps, eps_offsets_, eps_flat_,
                [](PoiId, PoiId found, auto&& keep) { keep(found); });
  // Merge proximity exactly as SemanticUnitMerging expects: other > pid.
  BuildRangeCsr(pois, options_.build.merging.neighbor_distance,
                merge_offsets_, merge_flat_,
                [](PoiId pid, PoiId found, auto&& keep) {
                  if (found > pid) keep(found);
                });

  // Components of the ε∪merge graph — the independence boundaries every
  // construction stage respects (see the class comment). When ε is no
  // wider than the merge distance every ε edge is also a merge edge (both
  // lists test the same squared distance), so the merge lists suffice.
  const bool eps_in_merge = options_.build.clustering.eps <=
                            options_.build.merging.neighbor_distance;
  UnionFind uf(n);
  for (size_t pid = 0; pid < n; ++pid) {
    for (uint32_t i = eps_offsets_[pid];
         !eps_in_merge && i < eps_offsets_[pid + 1]; ++i) {
      uf.Union(pid, eps_flat_[i]);
    }
    for (uint32_t i = merge_offsets_[pid]; i < merge_offsets_[pid + 1]; ++i) {
      uf.Union(pid, merge_flat_[i]);
    }
  }
  component_of_.assign(n, 0);
  component_size_.clear();
  std::vector<uint32_t> dense(n, UINT32_MAX);
  for (size_t pid = 0; pid < n; ++pid) {
    size_t root = uf.Find(pid);
    if (dense[root] == UINT32_MAX) {
      dense[root] = static_cast<uint32_t>(component_size_.size());
      component_size_.push_back(0);
    }
    component_of_[pid] = dense[root];
    component_size_[dense[root]]++;
  }
}

CitySemanticDiagram IncrementalTileCsd::Apply(
    const PoiDatabase& pois, const std::vector<StayPoint>& stays,
    Timestamp decay_as_of, TickStats* stats) {
  TickStats local;
  TickStats& st = stats != nullptr ? *stats : local;
  st = TickStats();
  size_t n = pois.size();

  // The connectivity CSRs and every cached cluster are only valid for the
  // POI set they were built over; a moved, re-categorised, added or
  // dropped POI (a new dataset cut into the same tile) rebuilds them.
  bool full = generations_ == 0 || !SamePois(applied_pois_, pois.pois());
  if (full) {
    BuildConnectivity(pois);
    applied_pois_ = pois.pois();
  }

  // Stay diff against the last applied generation. The canonical stream
  // order makes the old list a subsequence of the new one; anything else
  // means the caller fed a different tile or rewound history, and the
  // only safe answer is a full rebuild from what we were given.
  std::vector<StayPoint> fresh;
  if (!full) {
    size_t matched = 0;
    for (const StayPoint& sp : stays) {
      if (matched < applied_stays_.size() &&
          SameStay(applied_stays_[matched], sp)) {
        ++matched;
      } else {
        fresh.push_back(sp);
      }
    }
    if (matched != applied_stays_.size()) full = true;
  }

  // The popularity field is recomputed exactly every generation, through
  // the same constructor a monolithic build runs — incrementality lives
  // in the structural stages, never in Eq. 3 itself, so there is no
  // accumulated float drift to bound.
  PopularityDecayOptions decay = options_.build.decay;
  if (decay.enabled() && decay.as_of == 0) {
    decay.as_of = decay_as_of != 0 ? decay_as_of : ResolveDecayAsOf(stays);
  }
  popularity_.emplace(pois, stays, options_.build.r3sigma, decay);

  std::vector<char> active;
  if (!full) {
    // Dirty = every component owning a POI within R₃σ of a new stay; only
    // those components' popularity values (and so cluster structure) can
    // have changed.
    std::vector<char> dirty_comp(component_size_.size(), 0);
    for (const StayPoint& sp : fresh) {
      pois.ForEachInRange(sp.position, options_.build.r3sigma, [&](PoiId pid) {
        dirty_comp[component_of_[pid]] = 1;
      });
    }
    for (size_t c = 0; c < dirty_comp.size(); ++c) {
      if (!dirty_comp[c]) continue;
      ++st.dirty_components;
      st.dirty_pois += component_size_[c];
    }
    st.churn = n == 0 ? 0.0
                      : static_cast<double>(st.dirty_pois) /
                            static_cast<double>(n);
    st.new_stays = fresh.size();
    if (st.churn > options_.churn_threshold) {
      full = true;
    } else {
      st.incremental = true;
      active.assign(n, 0);
      for (size_t pid = 0; pid < n; ++pid) {
        active[pid] = dirty_comp[component_of_[pid]];
      }
      // Drop the dirty components' cached structure; RunStages rebuilds
      // exactly that slice.
      for (auto it = clusters_.begin(); it != clusters_.end();) {
        it = dirty_comp[component_of_[it->second.members.front()]]
                 ? clusters_.erase(it)
                 : std::next(it);
      }
      std::erase_if(groups_,
                    [&](const GroupState& g) { return dirty_comp[g.component]; });
    }
  }

  if (full) {
    st.incremental = false;
    if (st.new_stays == 0) {
      // First build / self-heal: no measured delta to report. A churn
      // fallback instead keeps the measured dirty numbers — they say why
      // the tick re-staged.
      st.dirty_components = component_size_.size();
      st.dirty_pois = n;
      st.churn = n == 0 ? 0.0 : 1.0;
    }
    clusters_.clear();
    groups_.clear();
    active.clear();
  }
  RunStages(pois, std::move(active));

  applied_stays_ = stays;
  ++generations_;
  return Materialize(pois);
}

void IncrementalTileCsd::RunStages(const PoiDatabase& pois,
                                   std::vector<char> active) {
  PopularityClusteringResult fresh = PopularityBasedClustering(
      pois, *popularity_, options_.build.clustering, eps_offsets_, eps_flat_,
      active);

  // Purify cluster by cluster: SemanticPurification's output is
  // cluster-major, so per-cluster calls concatenate to exactly the one
  // flat call a from-scratch build makes — and give us the block
  // boundaries the splice needs for free.
  std::vector<std::vector<PoiId>> fresh_units;
  std::vector<uint64_t> fresh_unit_keys;
  for (std::vector<PoiId>& cluster : fresh.clusters) {
    uint32_t seed = cluster.front();
    ClusterState cs;
    cs.members = cluster;
    if (options_.build.enable_purification) {
      std::vector<std::vector<PoiId>> one;
      one.push_back(std::move(cluster));
      cs.blocks =
          SemanticPurification(std::move(one), pois, options_.build.purification);
    } else {
      cs.blocks.push_back(std::move(cluster));
    }
    for (uint32_t b = 0; b < cs.blocks.size(); ++b) {
      fresh_units.push_back(cs.blocks[b]);
      fresh_unit_keys.push_back(NodeKey(false, seed, b));
    }
    clusters_.emplace(seed, std::move(cs));
  }

  if (options_.build.enable_merging) {
    MergeNodeGroups merged = SemanticUnitMergingGroups(
        fresh_units, fresh.unclustered, pois, *popularity_,
        options_.build.merging, merge_offsets_, merge_flat_);
    for (const std::vector<uint32_t>& group : merged.groups) {
      GroupState gs;
      gs.keys.reserve(group.size());
      for (uint32_t node : group) {
        gs.keys.push_back(
            node < merged.num_clustered_nodes
                ? fresh_unit_keys[node]
                : NodeKey(true,
                          fresh.unclustered[node - merged.num_clustered_nodes],
                          0));
      }
      // Ascending node index maps to ascending key (units were emitted in
      // key order, singletons follow in POI order), so front() stays the
      // root under the key ordering too.
      PoiId probe = (gs.keys.front() >> 62) == 0
                        ? fresh_units[group.front()].front()
                        : fresh.unclustered[group.front() -
                                            merged.num_clustered_nodes];
      gs.component = component_of_[probe];
      groups_.push_back(std::move(gs));
    }
  } else {
    // No merging: every purified unit is its own group, leftovers drop —
    // mirroring CsdBuilder::Build's enable_merging switch.
    for (size_t i = 0; i < fresh_units.size(); ++i) {
      GroupState gs;
      gs.keys.push_back(fresh_unit_keys[i]);
      gs.component = component_of_[fresh_units[i].front()];
      groups_.push_back(std::move(gs));
    }
  }
  std::sort(groups_.begin(), groups_.end(),
            [](const GroupState& a, const GroupState& b) {
              return a.keys.front() < b.keys.front();
            });
}

CitySemanticDiagram IncrementalTileCsd::Materialize(
    const PoiDatabase& pois) const {
  std::vector<SemanticUnit> units;
  std::vector<PoiId> members;
  for (const GroupState& group : groups_) {
    bool has_clustered = (group.keys.front() >> 62) == 0;
    members.clear();
    for (uint64_t key : group.keys) {
      if ((key >> 62) == 0) {
        uint32_t seed = static_cast<uint32_t>((key >> 31) & 0x7fffffffu);
        uint32_t block = static_cast<uint32_t>(key & 0x7fffffffu);
        const std::vector<PoiId>& unit = clusters_.at(seed).blocks[block];
        members.insert(members.end(), unit.begin(), unit.end());
      } else {
        members.push_back(static_cast<PoiId>((key >> 31) & 0x7fffffffu));
      }
    }
    bool keep = has_clustered || members.size() >= 2 ||
                options_.build.merging.keep_unmerged_singletons;
    if (!keep) continue;
    units.push_back(MakeSemanticUnit(static_cast<UnitId>(units.size()),
                                     members, pois, *popularity_));
  }
  return CitySemanticDiagram(&pois, std::move(units),
                             popularity_->popularities());
}

}  // namespace csd
