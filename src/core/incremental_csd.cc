#include "core/incremental_csd.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace csd {

namespace {

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

}  // namespace

IncrementalTileCsd::IncrementalTileCsd(Options options)
    : options_(std::move(options)) {
  CSD_CHECK_MSG(options_.churn_threshold >= 0.0,
                "churn threshold must be non-negative");
}

void IncrementalTileCsd::BuildConnectivity(const PoiDatabase& pois) {
  BuildEpsCsr(pois, options_.build.clustering.eps, eps_offsets_, eps_flat_);
  BuildMergeCsr(pois, options_.build.merging.neighbor_distance,
                merge_offsets_, merge_flat_);
  components_ = BuildComponentIndex(graph(), options_.build);
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

  if (!full) {
    // Dirty = every component owning a POI within R₃σ of a new stay; only
    // those components' popularity values (and so cluster structure) can
    // have changed.
    std::vector<char> dirty_comp(components_.size(), 0);
    for (const StayPoint& sp : fresh) {
      pois.ForEachInRange(sp.position, options_.build.r3sigma, [&](PoiId pid) {
        dirty_comp[components_.component_of[pid]] = 1;
      });
    }
    std::vector<uint32_t> dirty;
    for (uint32_t c = 0; c < dirty_comp.size(); ++c) {
      if (!dirty_comp[c]) continue;
      dirty.push_back(c);
      st.dirty_pois += components_.size_of(c);
    }
    st.dirty_components = dirty.size();
    st.churn = n == 0 ? 0.0
                      : static_cast<double>(st.dirty_pois) /
                            static_cast<double>(n);
    st.new_stays = fresh.size();
    if (st.churn > options_.churn_threshold) {
      full = true;
    } else {
      // Re-stage exactly the dirty components and splice their units
      // between the clean components' cached ones, by key.
      st.incremental = true;
      std::erase_if(units_, [&](const StagedUnit& u) {
        return dirty_comp[components_.component_of[u.pois.front()]] != 0;
      });
      std::vector<StagedUnit> restaged =
          RunComponentStages(pois, *popularity_, options_.build, graph(),
                             components_, dirty);
      std::vector<StagedUnit> spliced;
      spliced.reserve(units_.size() + restaged.size());
      std::merge(std::make_move_iterator(units_.begin()),
                 std::make_move_iterator(units_.end()),
                 std::make_move_iterator(restaged.begin()),
                 std::make_move_iterator(restaged.end()),
                 std::back_inserter(spliced),
                 [](const StagedUnit& a, const StagedUnit& b) {
                   return a.key < b.key;
                 });
      units_ = std::move(spliced);
    }
  }

  if (full) {
    st.incremental = false;
    if (st.new_stays == 0) {
      // First build / self-heal: no measured delta to report. A churn
      // fallback instead keeps the measured dirty numbers — they say why
      // the tick re-staged.
      st.dirty_components = components_.size();
      st.dirty_pois = n;
      st.churn = n == 0 ? 0.0 : 1.0;
    }
    std::vector<uint32_t> all(components_.size());
    for (uint32_t c = 0; c < all.size(); ++c) all[c] = c;
    units_ = RunComponentStages(pois, *popularity_, options_.build, graph(),
                                components_, all);
  }

  applied_stays_ = stays;
  ++generations_;
  return AssembleDiagram(pois, *popularity_, units_);
}

}  // namespace csd
