#include "ml/forest.h"

#include <cmath>

#include "common/parallel.h"
#include "common/strings.h"

namespace rvar {
namespace ml {
namespace {

// Bootstrap sample of row indices.
std::vector<size_t> Bootstrap(size_t num_rows, double fraction, Rng* rng) {
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(num_rows)));
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(num_rows) - 1));
  }
  return idx;
}

// Normalizes accumulated importance so it sums to 1 (if any gain was seen).
void NormalizeImportance(std::vector<double>* imp) {
  double total = 0.0;
  for (double v : *imp) total += v;
  if (total > 0.0) {
    for (double& v : *imp) v /= total;
  }
}

Status CommonChecks(const Dataset& d, const ForestConfig& config) {
  RVAR_RETURN_NOT_OK(d.Validate());
  if (d.NumRows() == 0) {
    return Status::InvalidArgument("cannot fit forest on empty dataset");
  }
  if (config.num_trees <= 0) {
    return Status::InvalidArgument(
        StrCat("num_trees must be positive, got ", config.num_trees));
  }
  if (config.bootstrap_fraction <= 0.0 || config.bootstrap_fraction > 1.0) {
    return Status::InvalidArgument("bootstrap_fraction must be in (0,1]");
  }
  return Status::OK();
}

}  // namespace

RandomForestClassifier::RandomForestClassifier(ForestConfig config)
    : config_(config) {}

Status RandomForestClassifier::Fit(const Dataset& d) {
  RVAR_RETURN_NOT_OK(CommonChecks(d, config_));
  if (d.y.size() != d.NumRows()) {
    return Status::InvalidArgument("classification requires labels");
  }
  num_classes_ = d.NumClasses();
  if (num_classes_ < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }

  RVAR_ASSIGN_OR_RETURN(FeatureBinner binner,
                        FeatureBinner::Fit(d, config_.max_bins));
  RVAR_ASSIGN_OR_RETURN(BinnedDataset binned, BinnedDataset::Make(binner, d));

  TreeConfig tree_config = config_.tree;
  if (config_.max_features > 0) {
    tree_config.max_features = config_.max_features;
  } else if (config_.max_features == 0) {
    tree_config.max_features = std::max(
        1, static_cast<int>(std::sqrt(static_cast<double>(d.NumFeatures()))));
  }

  // Every tree gets a pre-split child Rng drawn serially from the seed, so
  // its randomness is a pure function of (seed, tree index) — independent
  // of which thread trains it or in what order.
  Rng rng(config_.seed);
  const size_t num_trees = static_cast<size_t>(config_.num_trees);
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) tree_rngs.push_back(rng.Split());

  std::vector<Tree> trained(num_trees);
  std::vector<std::vector<double>> gains(num_trees);
  std::vector<Status> tree_status(num_trees, Status::OK());
  ParallelFor(num_trees, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      const std::vector<size_t> idx =
          Bootstrap(d.NumRows(), config_.bootstrap_fraction, &tree_rngs[t]);
      Result<Tree> tree =
          TrainClassificationTree(binned, d.y, num_classes_, idx,
                                  tree_config, &tree_rngs[t], &gains[t]);
      if (tree.ok()) {
        trained[t] = std::move(*tree);
      } else {
        tree_status[t] = tree.status();
      }
    }
  });
  for (const Status& st : tree_status) RVAR_RETURN_NOT_OK(st);

  trees_ = std::move(trained);
  flat_ = FlatForest();
  for (const Tree& tree : trees_) flat_.Add(tree);
  importance_.assign(d.NumFeatures(), 0.0);
  for (const std::vector<double>& gain : gains) {  // merge in tree order
    for (size_t f = 0; f < gain.size(); ++f) importance_[f] += gain[f];
  }
  NormalizeImportance(&importance_);
  return Status::OK();
}

std::vector<double> RandomForestClassifier::PredictProba(
    const std::vector<double>& row) const {
  RVAR_CHECK(!trees_.empty()) << "PredictProba before Fit";
  std::vector<double> proba(static_cast<size_t>(num_classes_), 0.0);
  // Accumulate leaf distributions over the flat layout in tree order —
  // the same additions in the same order as walking trees_, bit-identical.
  const double* x = row.data();
  for (size_t t = 0; t < flat_.num_trees(); ++t) {
    const double* leaf = flat_.Values(t, x);
    for (size_t k = 0; k < proba.size(); ++k) proba[k] += leaf[k];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& p : proba) p *= inv;
  return proba;
}

RandomForestRegressor::RandomForestRegressor(ForestConfig config)
    : config_(config) {}

Status RandomForestRegressor::Fit(const Dataset& d) {
  RVAR_RETURN_NOT_OK(CommonChecks(d, config_));
  if (d.target.size() != d.NumRows()) {
    return Status::InvalidArgument("regression requires targets");
  }

  RVAR_ASSIGN_OR_RETURN(FeatureBinner binner,
                        FeatureBinner::Fit(d, config_.max_bins));
  RVAR_ASSIGN_OR_RETURN(BinnedDataset binned, BinnedDataset::Make(binner, d));

  TreeConfig tree_config = config_.tree;
  if (config_.max_features > 0) {
    tree_config.max_features = config_.max_features;
  } else if (config_.max_features == 0) {
    tree_config.max_features =
        std::max(1, static_cast<int>(d.NumFeatures()) / 3);
  }

  // Same pre-split Rng scheme as the classifier: tree t's randomness is a
  // function of (seed, t) only, so parallel training stays deterministic.
  Rng rng(config_.seed);
  const size_t num_trees = static_cast<size_t>(config_.num_trees);
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) tree_rngs.push_back(rng.Split());

  std::vector<Tree> trained(num_trees);
  std::vector<std::vector<double>> gains(num_trees);
  std::vector<Status> tree_status(num_trees, Status::OK());
  ParallelFor(num_trees, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      const std::vector<size_t> idx =
          Bootstrap(d.NumRows(), config_.bootstrap_fraction, &tree_rngs[t]);
      Result<Tree> tree = TrainRegressionTree(binned, d.target, idx,
                                              tree_config, &tree_rngs[t],
                                              &gains[t]);
      if (tree.ok()) {
        trained[t] = std::move(*tree);
      } else {
        tree_status[t] = tree.status();
      }
    }
  });
  for (const Status& st : tree_status) RVAR_RETURN_NOT_OK(st);

  trees_ = std::move(trained);
  flat_ = FlatForest();
  for (const Tree& tree : trees_) flat_.Add(tree);
  importance_.assign(d.NumFeatures(), 0.0);
  for (const std::vector<double>& gain : gains) {  // merge in tree order
    for (size_t f = 0; f < gain.size(); ++f) importance_[f] += gain[f];
  }
  NormalizeImportance(&importance_);
  return Status::OK();
}

double RandomForestRegressor::Predict(const std::vector<double>& row) const {
  RVAR_CHECK(!trees_.empty()) << "Predict before Fit";
  double acc = 0.0;
  const double* x = row.data();
  for (size_t t = 0; t < flat_.num_trees(); ++t) {
    acc += flat_.PredictScalar(t, x);
  }
  return acc / static_cast<double>(trees_.size());
}

}  // namespace ml
}  // namespace rvar
