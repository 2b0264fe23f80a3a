#include "core/component_stages.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace csd {

namespace {

/// Root of x in a lock-free union-find whose links always point to a
/// smaller index. Path halving swings x to its grandparent — still an
/// ancestor, so a stale read only costs an extra hop.
uint32_t FindRoot(std::vector<std::atomic<uint32_t>>& parent, uint32_t x) {
  while (true) {
    uint32_t p = parent[x].load(std::memory_order_relaxed);
    if (p == x) return x;
    uint32_t gp = parent[p].load(std::memory_order_relaxed);
    if (gp != p) {
      parent[x].compare_exchange_weak(p, gp, std::memory_order_relaxed);
    }
    x = gp;
  }
}

void Unite(std::vector<std::atomic<uint32_t>>& parent, uint32_t a,
           uint32_t b) {
  while (true) {
    a = FindRoot(parent, a);
    b = FindRoot(parent, b);
    if (a == b) return;
    if (a < b) std::swap(a, b);
    // Hang the larger root under the smaller; a lost race means `a`
    // stopped being a root, so look both up again.
    uint32_t expected = a;
    if (parent[a].compare_exchange_strong(expected, b,
                                          std::memory_order_relaxed)) {
      return;
    }
  }
}

/// StagedUnit key of a merge node (see component_stages.h).
uint64_t NodeKey(bool unclustered, uint32_t a, uint32_t b) {
  CSD_DCHECK(a < (1u << 31) && b < (1u << 31));
  return (static_cast<uint64_t>(unclustered) << 62) |
         (static_cast<uint64_t>(a) << 31) | b;
}

/// One batch of whole components and what the stages made of it. Every
/// per-component range is a contiguous block, component-major, because
/// each stage runs component by component.
struct Batch {
  std::span<const uint32_t> components;
  // Clustering + purification.
  std::vector<std::vector<PoiId>> units;  // purified units
  std::vector<uint64_t> unit_keys;
  std::vector<uint32_t> units_end;  // per component, into `units`
  std::vector<PoiId> unclustered;
  std::vector<uint32_t> unclustered_end;  // per component
  // Merging.
  std::vector<StagedUnit> staged;  // ascending by key
};

void ClusterAndPurify(const PoiDatabase& pois,
                      const PopularityModel& popularity,
                      const CsdBuildOptions& options, const StageGraph& graph,
                      const ComponentIndex& index, Batch& batch) {
  PopularityClusteringResult coarse;
  std::vector<uint32_t> clusters_end;
  {
    CSD_TRACE_SPAN("csd_build/popularity_clustering");
    for (uint32_t c : batch.components) {
      PopularityBasedClusteringOn(pois, popularity, options.clustering,
                                  graph.eps_offsets, graph.eps_flat,
                                  index.domain(c), coarse);
      clusters_end.push_back(static_cast<uint32_t>(coarse.clusters.size()));
      batch.unclustered_end.push_back(
          static_cast<uint32_t>(coarse.unclustered.size()));
    }
  }
  batch.unclustered = std::move(coarse.unclustered);

  std::vector<PoiId> seeds;
  seeds.reserve(coarse.clusters.size());
  for (const std::vector<PoiId>& cluster : coarse.clusters) {
    seeds.push_back(cluster.front());
  }
  std::vector<uint32_t> blocks;
  {
    CSD_TRACE_SPAN("csd_build/purification");
    if (options.enable_purification) {
      batch.units = SemanticPurification(std::move(coarse.clusters), pois,
                                         options.purification, &blocks);
    } else {
      batch.units = std::move(coarse.clusters);
      blocks.assign(batch.units.size(), 1);
    }
  }
  batch.unit_keys.reserve(batch.units.size());
  size_t cluster = 0;
  for (uint32_t end : clusters_end) {
    for (; cluster < end; ++cluster) {
      for (uint32_t b = 0; b < blocks[cluster]; ++b) {
        batch.unit_keys.push_back(NodeKey(false, seeds[cluster], b));
      }
    }
    batch.units_end.push_back(static_cast<uint32_t>(batch.unit_keys.size()));
  }
}

void Merge(const PoiDatabase& pois, const PopularityModel& popularity,
           const CsdBuildOptions& options, const StageGraph& graph,
           const ComponentIndex& index, Batch& batch) {
  CSD_TRACE_SPAN("csd_build/unit_merging");
  std::vector<uint32_t> node_offsets;
  std::vector<PoiId> node_pois;
  MergedUnits merged;
  uint32_t unit_begin = 0;
  uint32_t single_begin = 0;
  for (size_t k = 0; k < batch.components.size(); ++k) {
    uint32_t unit_end = batch.units_end[k];
    uint32_t single_end = batch.unclustered_end[k];
    if (!options.enable_merging) {
      // Every purified unit is its own unit; leftovers drop.
      for (uint32_t u = unit_begin; u < unit_end; ++u) {
        batch.staged.push_back({batch.unit_keys[u], std::move(batch.units[u])});
      }
    } else {
      // This component's node universe: its purified units, then its
      // leftover singletons — the serial pass's node order restricted to
      // the component.
      node_offsets.assign(1, 0);
      node_pois.clear();
      for (uint32_t u = unit_begin; u < unit_end; ++u) {
        node_pois.insert(node_pois.end(), batch.units[u].begin(),
                         batch.units[u].end());
        node_offsets.push_back(CheckedOffset32(node_pois.size()));
      }
      if (options.merging.absorb_unclustered) {
        for (uint32_t s = single_begin; s < single_end; ++s) {
          node_pois.push_back(batch.unclustered[s]);
          node_offsets.push_back(CheckedOffset32(node_pois.size()));
        }
      }
      uint32_t num_units = unit_end - unit_begin;
      SemanticUnitMergingOn(
          MergeNodes{.offsets = node_offsets,
                     .pois = node_pois,
                     .num_clustered = num_units},
          index.domain(batch.components[k]), pois, popularity,
          options.merging, graph.merge_offsets, graph.merge_flat, merged);
      for (size_t g = 0; g < merged.size(); ++g) {
        uint32_t root = merged.root[g];
        uint64_t key =
            root < num_units
                ? batch.unit_keys[unit_begin + root]
                : NodeKey(true, batch.unclustered[single_begin + root -
                                                  num_units],
                          0);
        std::span<const PoiId> members = merged.unit(g);
        batch.staged.push_back(
            {key, std::vector<PoiId>(members.begin(), members.end())});
      }
    }
    unit_begin = unit_end;
    single_begin = single_end;
  }
  batch.units = std::vector<std::vector<PoiId>>();
  batch.unclustered = std::vector<PoiId>();
  std::sort(batch.staged.begin(), batch.staged.end(),
            [](const StagedUnit& a, const StagedUnit& b) {
              return a.key < b.key;
            });
}

}  // namespace

ComponentIndex BuildComponentIndex(const StageGraph& graph,
                                   const CsdBuildOptions& options) {
  CSD_TRACE_SPAN("csd_build/components");
  size_t n =
      graph.merge_offsets.empty() ? 0 : graph.merge_offsets.size() - 1;
  CSD_CHECK_MSG(n < UINT32_MAX, "too many POIs for the component index");
  const bool eps_in_merge =
      options.clustering.eps <= options.merging.neighbor_distance;
  CSD_CHECK_MSG(eps_in_merge || graph.eps_offsets.size() == n + 1,
                "component index needs the eps lists");

  ComponentIndex index;
  index.component_of.resize(n);
  {
    std::vector<std::atomic<uint32_t>> parent(n);
    ParallelFor(
        n,
        [&](size_t pid) {
          parent[pid].store(static_cast<uint32_t>(pid),
                            std::memory_order_relaxed);
        },
        {.grain = 4096});
    ParallelFor(
        n,
        [&](size_t pid) {
          auto self = static_cast<uint32_t>(pid);
          for (uint32_t i = graph.merge_offsets[pid];
               i < graph.merge_offsets[pid + 1]; ++i) {
            Unite(parent, self, graph.merge_flat[i]);
          }
          if (eps_in_merge) return;
          for (uint32_t i = graph.eps_offsets[pid];
               i < graph.eps_offsets[pid + 1]; ++i) {
            Unite(parent, self, graph.eps_flat[i]);
          }
        },
        {.grain = 1024});
    // Roots for now; renumbered densely below.
    ParallelFor(
        n,
        [&](size_t pid) {
          index.component_of[pid] =
              FindRoot(parent, static_cast<uint32_t>(pid));
        },
        {.grain = 4096});
  }

  // Every root is its component's smallest POI, so an ascending scan
  // meets each root before the rest of its component: number components
  // in that scan, then lay the POIs out component-major.
  index.offsets.assign(1, 0);
  for (size_t pid = 0; pid < n; ++pid) {
    uint32_t root = index.component_of[pid];
    if (root == pid) {
      index.component_of[pid] =
          static_cast<uint32_t>(index.offsets.size() - 1);
      index.offsets.push_back(0);
    } else {
      index.component_of[pid] = index.component_of[root];
    }
    index.offsets[index.component_of[pid] + 1]++;
  }
  for (size_t c = 1; c < index.offsets.size(); ++c) {
    index.offsets[c] += index.offsets[c - 1];
  }
  index.order.resize(n);
  index.slot_of.resize(n);
  {
    std::vector<uint32_t> cursor(index.offsets.begin(),
                                 index.offsets.end() - 1);
    for (size_t pid = 0; pid < n; ++pid) {
      uint32_t slot = cursor[index.component_of[pid]]++;
      index.order[slot] = static_cast<PoiId>(pid);
      index.slot_of[pid] = slot;
    }
  }

  static obs::Counter& components_counter =
      obs::MetricsRegistry::Get().GetCounter(
          "csd_build_components_total",
          "Connected components of the eps-union-merge proximity graph");
  static obs::Histogram& component_pois =
      obs::MetricsRegistry::Get().GetHistogram(
          "csd_build_component_pois", "POIs per proximity-graph component",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
           2048.0, 4096.0});
  components_counter.Increment(index.size());
  for (uint32_t c = 0; c < index.size(); ++c) {
    component_pois.Observe(static_cast<double>(index.size_of(c)));
  }
  return index;
}

std::vector<StagedUnit> RunComponentStages(
    const PoiDatabase& pois, const PopularityModel& popularity,
    const CsdBuildOptions& options, const StageGraph& graph,
    const ComponentIndex& index, std::span<const uint32_t> components,
    const std::function<void()>& before_merging) {
  // Bin whole components, in list order, into about four batches per
  // lane of equal POI counts.
  size_t total_pois = 0;
  for (uint32_t c : components) total_pois += index.size_of(c);
  size_t num_batches = std::min(components.size(), 4 * DefaultParallelism());
  std::vector<Batch> batches;
  batches.reserve(num_batches);
  size_t begin = 0;
  size_t acc = 0;
  for (size_t k = 0; k < components.size(); ++k) {
    acc += index.size_of(components[k]);
    size_t b = batches.size();
    if (acc * num_batches >= (b + 1) * total_pois ||
        k + 1 == components.size()) {
      batches.emplace_back().components =
          components.subspan(begin, k + 1 - begin);
      begin = k + 1;
    }
  }

  ParallelFor(
      batches.size(),
      [&](size_t b) {
        ClusterAndPurify(pois, popularity, options, graph, index, batches[b]);
      },
      {.grain = 1});
  if (before_merging) before_merging();
  ParallelFor(
      batches.size(),
      [&](size_t b) {
        Merge(pois, popularity, options, graph, index, batches[b]);
      },
      {.grain = 1});

  // Splice: a k-way merge of the per-batch key orders.
  size_t total_units = 0;
  for (const Batch& batch : batches) total_units += batch.staged.size();
  std::vector<StagedUnit> units;
  units.reserve(total_units);
  using Head = std::pair<uint64_t, size_t>;  // (key, batch)
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
  std::vector<size_t> next(batches.size(), 0);
  for (size_t b = 0; b < batches.size(); ++b) {
    if (!batches[b].staged.empty()) {
      heads.emplace(batches[b].staged.front().key, b);
    }
  }
  while (!heads.empty()) {
    size_t b = heads.top().second;
    heads.pop();
    std::vector<StagedUnit>& staged = batches[b].staged;
    units.push_back(std::move(staged[next[b]++]));
    if (next[b] < staged.size()) heads.emplace(staged[next[b]].key, b);
  }
  return units;
}

CitySemanticDiagram AssembleDiagram(const PoiDatabase& pois,
                                    const PopularityModel& popularity,
                                    std::vector<StagedUnit> staged) {
  std::vector<SemanticUnit> units(staged.size());
  ParallelFor(
      staged.size(),
      [&](size_t i) {
        units[i] = MakeSemanticUnit(static_cast<UnitId>(i),
                                    std::move(staged[i].pois), pois,
                                    popularity);
      },
      {.grain = 256});
  return CitySemanticDiagram(&pois, std::move(units),
                             popularity.popularities());
}

}  // namespace csd
