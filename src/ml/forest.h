// Copyright 2026 The rvar Authors.
//
// Random forests (bagged, feature-subsampled CART trees) for classification
// and regression. The regression forest is the substrate of the paper's
// Griffon-style baseline (Section 5, Figure 8); the classifier is one of the
// model families swept for cluster-membership prediction.

#ifndef RVAR_ML_FOREST_H_
#define RVAR_ML_FOREST_H_

#include <vector>

#include "common/rng.h"
#include "ml/model.h"
#include "ml/tree.h"

namespace rvar {
namespace ml {

/// \brief Hyper-parameters for both forest flavors.
struct ForestConfig {
  int num_trees = 100;
  TreeConfig tree;
  /// Rows drawn (with replacement) per tree as a fraction of the training
  /// set size.
  double bootstrap_fraction = 1.0;
  /// If > 0 overrides tree.max_features; if 0, uses sqrt(num_features) for
  /// classification and num_features/3 for regression (the R defaults).
  int max_features = 0;
  /// Histogram bins used for split finding.
  int max_bins = 64;
  uint64_t seed = 17;
};

/// \brief RandomForestClassifier: majority soft-vote of CART trees.
class RandomForestClassifier : public Classifier {
 public:
  explicit RandomForestClassifier(ForestConfig config = {});

  Status Fit(const Dataset& d) override;
  std::vector<double> PredictProba(
      const std::vector<double>& row) const override;
  int num_classes() const override { return num_classes_; }

  /// Mean impurity-decrease importance per feature (sums to 1 unless all
  /// zero). Valid after Fit.
  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  const std::vector<Tree>& trees() const { return trees_; }

 private:
  ForestConfig config_;
  int num_classes_ = 0;
  std::vector<Tree> trees_;
  // Compiled SoA view of trees_ for prediction.
  FlatForest flat_;
  std::vector<double> importance_;
};

/// \brief RandomForestRegressor: mean of CART regression trees.
class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(ForestConfig config = {});

  Status Fit(const Dataset& d) override;
  double Predict(const std::vector<double>& row) const override;

  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  const std::vector<Tree>& trees() const { return trees_; }

 private:
  ForestConfig config_;
  std::vector<Tree> trees_;
  // Compiled SoA view of trees_ for prediction.
  FlatForest flat_;
  std::vector<double> importance_;
};

}  // namespace ml
}  // namespace rvar

#endif  // RVAR_ML_FOREST_H_
