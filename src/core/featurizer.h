// Copyright 2026 The rvar Authors.
//
// Feature extraction for the prediction model (Section 5.1). Three feature
// classes, all available at compile/submit time:
//  - intrinsic: the compiled plan (operator counts, optimizer estimates);
//  - historic resource use: per-group aggregates over a historic reference
//    store (data read, temp data, vertices, token skyline stats, spare
//    tokens, per-SKU vertex fractions);
//  - environment: machine/cluster status at the submission instant
//    (per-SKU CPU utilization, load spread, spare-token availability).

#ifndef RVAR_CORE_FEATURIZER_H_
#define RVAR_CORE_FEATURIZER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "sim/datasets.h"

namespace rvar {
namespace core {

/// \brief Builds feature vectors for job runs.
class Featurizer {
 public:
  /// \param groups group specs indexed by group_id (groups[i].group_id==i);
  ///        their plans are read once, here.
  /// \param catalog the cluster's SKU catalog; must outlive the featurizer.
  Featurizer(const std::vector<sim::JobGroupSpec>* groups,
             const sim::SkuCatalog* catalog);

  /// Computes per-group historic aggregates from `history` (the paper uses
  /// D1 plus all runs before the one being featurized; we use the whole
  /// reference slice). Groups absent from history fall back to the current
  /// run's own telemetry at featurization time.
  void SetHistory(const sim::TelemetryStore& history);

  /// Ordered feature names; stable across calls.
  const std::vector<std::string>& FeatureNames() const { return names_; }

  /// Index of a feature name, or -1.
  int IndexOf(const std::string& name) const;

  /// Writes one run's features to x[0, FeatureNames().size()). Allocates
  /// nothing, so hot loops reuse one caller-owned row. OutOfRange for an
  /// unknown group, with `x` untouched.
  Status FeaturesInto(const sim::JobRun& run, double* x) const;

  /// Feature vector for one run (length FeatureNames().size()).
  Result<std::vector<double>> FeaturesFor(const sim::JobRun& run) const;

  /// Feature vectors for a batch of runs, in order. Rows are built in
  /// parallel (common/parallel.h) with output identical to calling
  /// FeaturesFor in a loop; fails with the first failing row's status.
  Result<std::vector<std::vector<double>>> FeaturesForAll(
      const std::vector<const sim::JobRun*>& runs) const;

  /// Features + labels for every run of `slice` whose group appears in
  /// `group_labels`; runs of unlabeled groups are skipped.
  Result<ml::Dataset> BuildDataset(
      const sim::TelemetryStore& slice,
      const std::unordered_map<int, int>& group_labels) const;

  /// Features + runtime-seconds regression targets for every run (used by
  /// the Griffon-style baseline).
  Result<ml::Dataset> BuildRegressionDataset(
      const sim::TelemetryStore& slice) const;

 private:
  /// Per-group historic aggregates (the expensive part of SetHistory).
  struct GroupHistory {
    double input_mean = 0.0, input_std = 0.0;
    double temp_mean = 0.0;
    double vertices_mean = 0.0;
    double max_tokens_mean = 0.0, max_tokens_std = 0.0;
    double avg_tokens_mean = 0.0;
    double spare_tokens_mean = 0.0;
    /// Historic runtime scale (Section 5.1's historic runtime statistics;
    /// shape-proxy statistics are excluded to keep what-if transforms
    /// counterfactually consistent).
    double runtime_median = 0.0;
    std::vector<double> sku_frac;
  };

  /// Intrinsic plan features per group: group g's at
  /// plan_features_[g * kPlanFeatures].
  static constexpr size_t kPlanFeatures = 5 + sim::kNumOperatorTypes;
  std::vector<double> plan_features_;
  const sim::SkuCatalog* catalog_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> name_index_;
  std::unordered_map<int, GroupHistory> history_;
};

}  // namespace core
}  // namespace rvar

#endif  // RVAR_CORE_FEATURIZER_H_
