#ifndef CSD_CORE_METRICS_H_
#define CSD_CORE_METRICS_H_

#include <vector>

#include "core/pattern.h"
#include "core/semantic_recognition.h"

namespace csd {

/// Per-pattern quality numbers of Section 5's evaluation.
struct PatternMetrics {
  /// Equation (10): mean over positions of the average pairwise distance
  /// within the group (meters). Smaller = denser = better.
  double spatial_sparsity = 0.0;

  /// Equation (12): mean over positions of the average pairwise cosine
  /// similarity between the group members' semantics, where each member's
  /// semantic property is re-queried from the reference CSD recognizer
  /// (the paper evaluates every approach against CSD semantics).
  double semantic_consistency = 0.0;
};

/// Evaluates one pattern. `reference` is the CSD recognizer used to
/// (re-)derive every group member's semantic property for the consistency
/// metric, per the paper's Equation (11) note.
PatternMetrics EvaluatePattern(const FineGrainedPattern& pattern,
                               const SemanticRecognizer& reference);

/// Aggregates reported in Figures 9-13.
struct ApproachMetrics {
  size_t num_patterns = 0;     // #patterns
  size_t coverage = 0;         // sum of supports
  double mean_sparsity = 0.0;  // average spatial sparsity (m)
  double mean_consistency = 0.0;

  /// Figure 9's histogram: 20 bins of width `bin_width` starting at 0;
  /// the last bin also absorbs overflow.
  std::vector<size_t> sparsity_histogram;

  /// Figure 10's box statistics over per-pattern consistency.
  double consistency_min = 0.0;
  double consistency_q1 = 0.0;
  double consistency_median = 0.0;
  double consistency_q3 = 0.0;
  double consistency_max = 0.0;
};

/// Evaluates a whole pattern set (histogram uses `num_bins` bins of width
/// `bin_width` meters, Figure 9's 20 × 5 m by default). Patterns are
/// scored in parallel, so `reference` must be safe to call concurrently.
ApproachMetrics EvaluateApproach(
    const std::vector<FineGrainedPattern>& patterns,
    const SemanticRecognizer& reference, size_t num_bins = 20,
    double bin_width = 5.0);

/// Linear-interpolated quantile of an unsorted sample (q in [0,1]).
double Quantile(std::vector<double> values, double q);

}  // namespace csd

#endif  // CSD_CORE_METRICS_H_
