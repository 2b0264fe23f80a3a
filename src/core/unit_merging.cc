#include "core/unit_merging.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/dense_scratch.h"

namespace csd {

namespace {

/// Plain union-find with path halving. Union always parents the larger
/// root under the smaller, so a class's root is its smallest member —
/// the canonical group ordering below depends on that.
class UnionFind {
 public:
  /// Makes [0, n) singletons, reusing the parent array's capacity.
  void Reset(size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  bool Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[std::max(a, b)] = std::min(a, b);
    return true;
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

void SemanticUnitMergingOn(const MergeNodes& nodes, const StageDomain& domain,
                           const PoiDatabase& pois,
                           const PopularityModel& popularity,
                           const MergingOptions& options,
                           std::span<const uint32_t> nb_offsets,
                           std::span<const PoiId> nb_flat, MergedUnits& out) {
  CSD_CHECK_MSG(nb_offsets.size() == pois.size() + 1,
                "proximity cache has wrong offset count");
  out.root.clear();
  out.offsets.assign(1, 0);
  out.pois.clear();
  const size_t num_nodes = nodes.size();
  if (num_nodes == 0) return;
  CSD_CHECK_MSG(num_nodes <= UINT32_MAX, "too many merge nodes");
  auto node_members = [&](size_t node) {
    return nodes.pois.subspan(nodes.offsets[node],
                              nodes.offsets[node + 1] - nodes.offsets[node]);
  };

  // Per-thread scratch, reused across calls: sized by this run's nodes
  // and domain, never by the city.
  thread_local DenseScratch<uint32_t> node_of;  // domain-local POI → node
  thread_local std::vector<uint64_t> edges;
  thread_local UnionFind uf;
  thread_local std::vector<SemanticUnit> acc;
  thread_local std::vector<uint32_t> seen_round;
  thread_local std::vector<uint32_t> group_of;
  node_of.Reset(domain.size());
  for (size_t node = 0; node < num_nodes; ++node) {
    for (PoiId pid : node_members(node)) {
      node_of[domain.Local(pid)] = static_cast<uint32_t>(node);
    }
  }

  // Node-level adjacency from the POI proximity lists. The edge list is
  // sorted and deduplicated, so the merge passes below walk the edges in
  // ascending (lo, hi) node order — a pure function of the node universe,
  // stable under restriction to a node subset (the runner's
  // order-isomorphism contract).
  edges.clear();
  for (size_t node = 0; node < num_nodes; ++node) {
    for (PoiId pid : node_members(node)) {
      for (uint32_t i = nb_offsets[pid]; i < nb_offsets[pid + 1]; ++i) {
        uint32_t local = domain.Local(nb_flat[i]);
        if (!node_of.Contains(local)) continue;
        uint64_t other = node_of.Get(local);
        if (other == node) continue;
        uint64_t lo = std::min<uint64_t>(node, other);
        uint64_t hi = std::max<uint64_t>(node, other);
        edges.push_back((lo << 32) | hi);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Per-round group state, reused across rounds: the cosine test only
  // reads a group's popularity mass per category and its category set,
  // all of which are accumulated member by member in node order — the
  // exact summation order MakeSemanticUnit uses on the concatenated
  // member list, so the similarity values are bit-identical to building
  // a fresh SemanticUnit per group.
  uf.Reset(num_nodes);
  if (acc.size() < num_nodes) acc.resize(num_nodes);
  seen_round.assign(num_nodes, 0);
  uint32_t round = 0;
  while (true) {
    ++round;
    for (size_t node = 0; node < num_nodes; ++node) {
      uint32_t root = uf.Find(static_cast<uint32_t>(node));
      SemanticUnit& unit = acc[root];
      if (seen_round[root] != round) {
        seen_round[root] = round;
        unit.total_popularity = 0.0;
        unit.category_popularity.fill(0.0);
        unit.property = SemanticProperty();
      }
      for (PoiId pid : node_members(node)) {
        const Poi& p = pois.poi(pid);
        double pop = popularity.popularity(pid);
        unit.total_popularity += pop;
        unit.category_popularity[static_cast<size_t>(p.major())] += pop;
        unit.property.Insert(p.major());
      }
    }

    // One merging pass over the (root-level) adjacency, in sorted edge
    // order.
    size_t merges = 0;
    for (uint64_t key : edges) {
      uint32_t a = uf.Find(static_cast<uint32_t>(key >> 32));
      uint32_t b = uf.Find(static_cast<uint32_t>(key & 0xffffffffu));
      if (a == b) continue;
      if (acc[a].CosineSimilarity(acc[b]) >= options.cosine_threshold) {
        if (uf.Union(a, b)) ++merges;
      }
    }
    if (merges == 0) break;
  }

  // Materialize the kept classes. A class is first seen at its root (the
  // root IS the smallest member), so numbering classes in a node scan
  // orders them by root; a counting pass then lays out each class's
  // members in node order — no hashing.
  struct Class {
    uint32_t root;
    uint32_t num_pois = 0;
    uint32_t cursor = UINT32_MAX;  // write position; UINT32_MAX = dropped
  };
  thread_local std::vector<Class> classes;
  classes.clear();
  group_of.assign(num_nodes, UINT32_MAX);  // indexed by root
  for (size_t node = 0; node < num_nodes; ++node) {
    uint32_t root = uf.Find(static_cast<uint32_t>(node));
    if (group_of[root] == UINT32_MAX) {
      group_of[root] = static_cast<uint32_t>(classes.size());
      classes.push_back({root});
    }
    classes[group_of[root]].num_pois +=
        static_cast<uint32_t>(node_members(node).size());
  }
  // Never-merged leftover singletons drop unless configured otherwise;
  // a class holds a clustered POI iff its root is a purified unit.
  size_t total = 0;
  for (Class& c : classes) {
    bool keep = c.root < nodes.num_clustered || c.num_pois >= 2 ||
                options.keep_unmerged_singletons;
    if (!keep) continue;
    c.cursor = CheckedOffset32(total);
    total += c.num_pois;
    out.root.push_back(c.root);
    out.offsets.push_back(CheckedOffset32(total));
  }
  out.pois.resize(total);
  for (size_t node = 0; node < num_nodes; ++node) {
    Class& c = classes[group_of[uf.Find(static_cast<uint32_t>(node))]];
    if (c.cursor == UINT32_MAX) continue;
    std::span<const PoiId> members = node_members(node);
    std::copy(members.begin(), members.end(), out.pois.begin() + c.cursor);
    c.cursor += static_cast<uint32_t>(members.size());
  }

  static obs::Counter& merged_counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_merged_units_total", "Semantic units emitted by unit merging");
  merged_counter.Increment(out.size());
}

std::vector<std::vector<PoiId>> SemanticUnitMerging(
    const std::vector<std::vector<PoiId>>& purified_units,
    const std::vector<PoiId>& unclustered, const PoiDatabase& pois,
    const PopularityModel& popularity, const MergingOptions& options,
    std::span<const uint32_t> nb_offsets, std::span<const PoiId> nb_flat) {
  std::vector<uint32_t> cached_offsets;
  std::vector<PoiId> cached_flat;
  if (nb_offsets.empty()) {
    BuildMergeCsr(pois, options.neighbor_distance, cached_offsets,
                  cached_flat);
    nb_offsets = cached_offsets;
    nb_flat = cached_flat;
  }
  // Node universe: purified units first, then leftover singletons.
  std::vector<uint32_t> node_offsets(1, 0);
  std::vector<PoiId> node_pois;
  for (const std::vector<PoiId>& unit : purified_units) {
    node_pois.insert(node_pois.end(), unit.begin(), unit.end());
    node_offsets.push_back(CheckedOffset32(node_pois.size()));
  }
  if (options.absorb_unclustered) {
    for (PoiId pid : unclustered) {
      node_pois.push_back(pid);
      node_offsets.push_back(CheckedOffset32(node_pois.size()));
    }
  }
  std::vector<PoiId> all(pois.size());
  for (size_t pid = 0; pid < all.size(); ++pid) {
    all[pid] = static_cast<PoiId>(pid);
  }
  MergedUnits merged;
  SemanticUnitMergingOn(
      MergeNodes{.offsets = node_offsets,
                 .pois = node_pois,
                 .num_clustered = purified_units.size()},
      StageDomain{.pois = all}, pois, popularity, options, nb_offsets, nb_flat,
      merged);
  std::vector<std::vector<PoiId>> result;
  result.reserve(merged.size());
  for (size_t g = 0; g < merged.size(); ++g) {
    std::span<const PoiId> unit = merged.unit(g);
    result.emplace_back(unit.begin(), unit.end());
  }
  return result;
}

}  // namespace csd
