#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "geo/stats.h"
#include "util/check.h"
#include "util/parallel.h"

namespace csd {

PatternMetrics EvaluatePattern(const FineGrainedPattern& pattern,
                               const SemanticRecognizer& reference) {
  PatternMetrics metrics;
  size_t n = pattern.groups.size();
  if (n == 0) return metrics;

  double sparsity_acc = 0.0;
  double consistency_acc = 0.0;
  // Group-loop scratch, reused across groups. Members recognized at the
  // same semantic unit share a property bitmask, so a group holds only a
  // handful of distinct masks: the O(m²) cosine loop reads a d×d table of
  // the distinct-pair cosines instead of recomputing popcounts and a sqrt
  // per pair. The summation order over (i, j) is unchanged and Cosine is a
  // pure function of the two masks, so the result is bit-identical.
  std::vector<Vec2> positions;
  std::vector<uint32_t> mask_id;
  std::vector<uint32_t> uniq;
  std::vector<double> table;
  for (const auto& group : pattern.groups) {
    // Equation (9): average pairwise distance within the group.
    positions.clear();
    positions.reserve(group.size());
    for (const StayPoint& sp : group) positions.push_back(sp.position);
    sparsity_acc += AveragePairwiseDistance(positions);

    // Equation (11): average pairwise cosine between members' semantics as
    // re-queried from the reference CSD.
    size_t m = group.size();
    if (m < 2) {
      consistency_acc += 1.0;
      continue;
    }
    mask_id.clear();
    uniq.clear();
    for (const StayPoint& sp : group) {
      uint32_t bits = reference.Recognize(sp.position).bits();
      size_t d = uniq.size();
      size_t id = 0;
      while (id < d && uniq[id] != bits) ++id;
      if (id == d) uniq.push_back(bits);
      mask_id.push_back(static_cast<uint32_t>(id));
    }
    size_t d = uniq.size();
    table.assign(d * d, 0.0);
    for (size_t a = 0; a < d; ++a) {
      for (size_t b = 0; b < d; ++b) {
        table[a * d + b] = SemanticProperty::FromBits(uniq[a])
                               .Cosine(SemanticProperty::FromBits(uniq[b]));
      }
    }
    double acc = 0.0;
    for (size_t i = 0; i + 1 < m; ++i) {
      const double* row = table.data() + mask_id[i] * d;
      for (size_t j = i + 1; j < m; ++j) {
        acc += row[mask_id[j]];
      }
    }
    consistency_acc +=
        acc * 2.0 / (static_cast<double>(m) * static_cast<double>(m - 1));
  }
  metrics.spatial_sparsity = sparsity_acc / static_cast<double>(n);
  metrics.semantic_consistency = consistency_acc / static_cast<double>(n);
  return metrics;
}

double Quantile(std::vector<double> values, double q) {
  CSD_CHECK(!values.empty());
  CSD_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = static_cast<size_t>(std::ceil(pos));
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

ApproachMetrics EvaluateApproach(
    const std::vector<FineGrainedPattern>& patterns,
    const SemanticRecognizer& reference, size_t num_bins, double bin_width) {
  ApproachMetrics out;
  out.sparsity_histogram.assign(num_bins, 0);
  out.num_patterns = patterns.size();
  if (patterns.empty()) return out;

  // Patterns score independently, each into its own slot; the folds
  // below run in pattern order, so every sum is the serial one.
  std::vector<PatternMetrics> scored(patterns.size());
  ParallelFor(
      patterns.size(),
      [&](size_t i) { scored[i] = EvaluatePattern(patterns[i], reference); },
      {.grain = 1});
  std::vector<double> sparsities;
  std::vector<double> consistencies;
  sparsities.reserve(patterns.size());
  consistencies.reserve(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    const PatternMetrics& m = scored[i];
    sparsities.push_back(m.spatial_sparsity);
    consistencies.push_back(m.semantic_consistency);
    out.coverage += patterns[i].support();

    size_t bin = bin_width > 0.0
                     ? static_cast<size_t>(m.spatial_sparsity / bin_width)
                     : 0;
    bin = std::min(bin, num_bins - 1);  // overflow bin
    out.sparsity_histogram[bin]++;
  }

  double s_acc = 0.0;
  double c_acc = 0.0;
  for (double s : sparsities) s_acc += s;
  for (double c : consistencies) c_acc += c;
  out.mean_sparsity = s_acc / static_cast<double>(sparsities.size());
  out.mean_consistency = c_acc / static_cast<double>(consistencies.size());
  out.consistency_min = Quantile(consistencies, 0.0);
  out.consistency_q1 = Quantile(consistencies, 0.25);
  out.consistency_median = Quantile(consistencies, 0.5);
  out.consistency_q3 = Quantile(consistencies, 0.75);
  out.consistency_max = Quantile(consistencies, 1.0);
  return out;
}

}  // namespace csd
