#include "core/counterpart_cluster.h"

#include <cmath>
#include <cstdlib>
#include <span>

#include "cluster/optics.h"
#include "geo/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace csd {

std::vector<CoarsePattern> MineCoarsePatterns(
    const SemanticTrajectoryDb& db, const ExtractionOptions& options) {
  CSD_TRACE_SPAN("extract/mine_coarse");
  // Encode each trajectory as the sequence of its stay points' semantic
  // property bitmasks; stay points with empty (unrecognized) semantics are
  // skipped, with an index map back to the original stay positions. Both
  // the sequences and the index map live in one CSR block (they are
  // position-for-position parallel), not in one vector per trajectory.
  FlatSequenceDb sequences;
  std::vector<uint32_t> orig_index;  // parallel to sequences.items
  sequences.offsets.reserve(db.size() + 1);
  sequences.offsets.push_back(0);
  for (size_t i = 0; i < db.size(); ++i) {
    for (size_t j = 0; j < db[i].stays.size(); ++j) {
      uint32_t bits = db[i].stays[j].semantic.bits();
      if (bits == 0) continue;
      sequences.items.push_back(bits);
      orig_index.push_back(static_cast<uint32_t>(j));
    }
    sequences.offsets.push_back(static_cast<uint32_t>(sequences.items.size()));
  }

  PrefixSpanOptions ps;
  ps.min_support = options.support_threshold;
  ps.min_length = options.min_pattern_length;
  ps.max_length = options.max_pattern_length;
  ps.closed_only = options.closed_patterns;
  std::vector<SequentialPattern> frequent =
      options.seq_shard_lanes > 0
          ? PrefixSpanSharded(sequences, ps, options.seq_shard_lanes)
          : PrefixSpan(sequences, ps);

  std::vector<CoarsePattern> coarse;
  coarse.reserve(frequent.size());
  for (const SequentialPattern& fp : frequent) {
    CoarsePattern cp;
    cp.semantics.reserve(fp.items.size());
    for (Item item : fp.items) {
      cp.semantics.push_back(SemanticProperty::FromBits(item));
    }
    cp.members.reserve(fp.supporting_sequences.size());
    for (size_t seq : fp.supporting_sequences) {
      // Leftmost embedding of the pattern, mapped straight back to stay
      // positions — no intermediate embedding vector.
      std::span<const Item> s = sequences.sequence(seq);
      uint32_t base = sequences.offsets[seq];
      CoarsePattern::Member member;
      member.trajectory = db[seq].id;
      member.db_index = seq;
      member.stay_index.reserve(fp.items.size());
      size_t pos = 0;
      for (Item item : fp.items) {
        while (pos < s.size() && s[pos] != item) ++pos;
        CSD_CHECK_MSG(pos < s.size(),
                      "PrefixSpan support without an embedding");
        member.stay_index.push_back(orig_index[base + pos]);
        ++pos;
      }
      cp.members.push_back(std::move(member));
    }
    coarse.push_back(std::move(cp));
  }
  return coarse;
}

namespace {

Vec2 MemberPosition(const CoarsePattern::Member& member,
                    const SemanticTrajectoryDb& db, size_t k) {
  return db[member.db_index].stays[member.stay_index[k]].position;
}

Timestamp MemberTime(const CoarsePattern::Member& member,
                     const SemanticTrajectoryDb& db, size_t k) {
  return db[member.db_index].stays[member.stay_index[k]].time;
}

}  // namespace

std::vector<FineGrainedPattern> RefineByCounterpartCluster(
    const CoarsePattern& coarse, const SemanticTrajectoryDb& db,
    const ExtractionOptions& options) {
  CSD_TRACE_SPAN("extract/refine");
  std::vector<FineGrainedPattern> result;
  size_t m = coarse.length();
  size_t n = coarse.support();
  if (m == 0 || n < options.support_threshold) return result;

  // Line 6: per-position OPTICS over the members' k-th stay points.
  std::vector<std::vector<int32_t>> labels(m);
  std::vector<Vec2> points;
  points.reserve(n);
  for (size_t k = 0; k < m; ++k) {
    points.clear();
    for (const auto& member : coarse.members) {
      points.push_back(MemberPosition(member, db, k));
    }
    labels[k] = OpticsCluster(points, options.support_threshold,
                              options.optics_max_eps)
                    .labels;
  }

  std::vector<char> active(n, 1);  // membership of the shrinking pa

  // Lines 7-20: each remaining member acts as the seed ST_i once. The
  // candidate-set buffers survive across seeds; the temporal filter
  // compacts in place.
  std::vector<size_t> cand;
  std::vector<size_t> next;
  std::vector<Vec2> group_points;
  for (size_t seed = 0; seed < n; ++seed) {
    if (!active[seed]) continue;

    cand.clear();  // C⁰_CP = pa
    for (size_t j = 0; j < n; ++j) {
      if (active[j]) cand.push_back(j);
    }
    bool valid = true;

    for (size_t k = 0; k < m && valid; ++k) {
      int32_t seed_label = labels[k][seed];
      // Line 10: keep members co-clustered with the seed at position k.
      next.clear();
      if (seed_label != kNoiseLabel) {
        for (size_t j : cand) {
          if (labels[k][j] == seed_label) next.push_back(j);
        }
      }
      // Lines 11-12: temporal constraint between consecutive positions.
      if (k > 0) {
        size_t kept = 0;
        for (size_t j : next) {
          Timestamp gap = std::abs(MemberTime(coarse.members[j], db, k) -
                                   MemberTime(coarse.members[j], db, k - 1));
          if (gap <= options.temporal_constraint) next[kept++] = j;
        }
        next.resize(kept);
      }
      // Lines 13-14: the group around the k-th points must stay dense.
      group_points.clear();
      for (size_t j : next) {
        group_points.push_back(MemberPosition(coarse.members[j], db, k));
      }
      if (SpatialDensity(group_points) < options.density_threshold) {
        for (size_t j : next) active[j] = 0;  // pa ← pa − C^k
        active[seed] = 0;  // the seed can never succeed again
        valid = false;
        break;
      }
      cand.swap(next);
    }

    if (!valid) continue;

    // Line 15: the gathered counterpart set leaves the coarse pattern.
    for (size_t j : cand) active[j] = 0;
    active[seed] = 0;

    // Lines 16-17: support check.
    if (cand.size() < options.support_threshold) continue;

    // Lines 18-20: representative points (closest to center, average
    // timestamp) form the fine-grained pattern.
    FineGrainedPattern pattern;
    pattern.representative.reserve(m);
    pattern.groups.resize(m);
    pattern.supporting.reserve(cand.size());
    for (size_t j : cand) {
      pattern.supporting.push_back(coarse.members[j].trajectory);
    }
    for (size_t k = 0; k < m; ++k) {
      points.clear();
      double mean_time = 0.0;
      for (size_t j : cand) {
        const auto& member = coarse.members[j];
        points.push_back(MemberPosition(member, db, k));
        mean_time += static_cast<double>(MemberTime(member, db, k));
        pattern.groups[k].push_back(
            db[member.db_index].stays[member.stay_index[k]]);
      }
      mean_time /= static_cast<double>(cand.size());
      size_t center = CenterPointIndex(points);
      pattern.representative.emplace_back(points[center],
                                          static_cast<Timestamp>(mean_time),
                                          coarse.semantics[k]);
    }
    result.push_back(std::move(pattern));
  }
  return result;
}

std::vector<FineGrainedPattern> CounterpartClusterExtract(
    const SemanticTrajectoryDb& db, const ExtractionOptions& options) {
  static obs::Counter& coarse_counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_coarse_patterns_total", "Coarse patterns mined by PrefixSpan");
  static obs::Counter& fine_counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_fine_patterns_total",
      "Fine-grained patterns produced by counterpart clustering");
  // Coarse patterns refine independently; each writes its own slot and
  // the slots are concatenated in pattern order, so the output does not
  // depend on the thread count.
  std::vector<CoarsePattern> coarse = MineCoarsePatterns(db, options);
  std::vector<std::vector<FineGrainedPattern>> fine(coarse.size());
  ParallelFor(
      coarse.size(),
      [&](size_t i) {
        fine[i] = RefineByCounterpartCluster(coarse[i], db, options);
      },
      {.grain = 1});
  coarse_counter.Increment(coarse.size());
  std::vector<FineGrainedPattern> patterns;
  for (std::vector<FineGrainedPattern>& f : fine) {
    fine_counter.Increment(f.size());
    patterns.insert(patterns.end(), std::make_move_iterator(f.begin()),
                    std::make_move_iterator(f.end()));
  }
  return patterns;
}

}  // namespace csd
