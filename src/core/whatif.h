// Copyright 2026 The rvar Authors.
//
// What-if analysis (Section 7): re-run the trained predictor on perturbed
// features and measure how jobs migrate between shapes. Canned transforms
// implement the paper's three scenarios — disabling spare tokens (7.1),
// shifting vertices to a newer SKU generation (7.2), and equalizing
// machine load (7.3).

#ifndef RVAR_CORE_WHATIF_H_
#define RVAR_CORE_WHATIF_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/predictor.h"

namespace rvar {
namespace core {

/// \brief Mutates a FULL feature vector in place. The featurizer resolves
/// feature names to indices. Scenario re-prediction runs in parallel
/// (common/parallel.h), so transforms must be safe to invoke concurrently
/// on distinct vectors — pure functions of their inputs, like the built-in
/// scenarios below.
using FeatureTransform =
    std::function<void(const Featurizer&, std::vector<double>*)>;

/// \brief One cell of the migration summary.
struct Migration {
  int from = 0;
  int to = 0;
  int count = 0;
  /// Fraction of all evaluated runs making this move.
  double fraction_of_total = 0.0;
  /// Fraction of the runs originally predicted `from` that moved to `to`
  /// (the paper's "15% of jobs in Cluster 2 are now in Cluster 1").
  double fraction_of_from = 0.0;
};

/// \brief Outcome of one scenario.
struct ScenarioResult {
  std::string name;
  int num_runs = 0;
  int num_changed = 0;
  /// counts[from][to] over all evaluated runs.
  std::vector<std::vector<int>> transition_counts;
  /// Off-diagonal migrations sorted by count descending.
  std::vector<Migration> top_migrations;

  double ChangedFraction() const {
    return num_runs > 0 ? static_cast<double>(num_changed) / num_runs : 0.0;
  }
};

/// \brief Applies feature transforms and summarizes shape migrations.
class WhatIfEngine {
 public:
  /// \param predictor must outlive the engine.
  explicit WhatIfEngine(const VariationPredictor* predictor);

  /// Predicts every run of `slice` before and after `transform`, both
  /// against the one model epoch the predictor serves when Run starts.
  Result<ScenarioResult> Run(const sim::TelemetryStore& slice,
                             const std::string& name,
                             const FeatureTransform& transform) const;

  // --- The paper's scenarios ---

  /// Section 7.1: no spare tokens (historic spare usage and current spare
  /// availability zeroed).
  static FeatureTransform DisableSpareTokens();

  /// Section 7.2: move all historic vertex share from one SKU to another
  /// (e.g. "Gen3.5" -> "Gen5.2").
  static FeatureTransform ShiftSkuVertices(const std::string& from_sku,
                                           const std::string& to_sku);

  /// Section 7.3: perfectly balanced load — the load-spread feature drops
  /// to zero and every per-SKU utilization collapses to their mean.
  static FeatureTransform EqualizeLoad();

 private:
  const VariationPredictor* predictor_;
};

}  // namespace core
}  // namespace rvar

#endif  // RVAR_CORE_WHATIF_H_
