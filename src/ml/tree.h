// Copyright 2026 The rvar Authors.
//
// Decision trees with histogram-based split finding. One node/tree
// representation is shared by the random forest, the gradient-boosted
// ensemble, and TreeSHAP (which needs per-node covers and scalar outputs).

#ifndef RVAR_ML_TREE_H_
#define RVAR_ML_TREE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "ml/dataset.h"

namespace rvar {
namespace ml {

/// \brief One node of a binary decision tree. Rows with
/// x[feature] <= threshold go left. feature == -1 marks a leaf.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  /// Leaf payload: class distribution for classification trees (sums to 1),
  /// a single element for regression/boosting trees. Populated on internal
  /// nodes too (used by SHAP for expectations).
  std::vector<double> value;
  /// Number of training samples (or total hessian) that reached this node.
  double cover = 0.0;
};

/// \brief A trained tree: flat node array, root at index 0.
struct Tree {
  std::vector<TreeNode> nodes;

  bool empty() const { return nodes.empty(); }

  /// Index of the leaf that `row` falls into.
  int FindLeaf(const std::vector<double>& row) const;

  /// The leaf's value vector for `row`.
  const std::vector<double>& PredictValue(const std::vector<double>& row) const;

  /// Scalar prediction: element `k` of the leaf value.
  double PredictScalar(const std::vector<double>& row, int k = 0) const;

  /// Maximum depth (root = 0); -1 for an empty tree.
  int Depth() const;

  int NumLeaves() const;
};

/// \brief Structure-of-arrays layout of a random forest for inference
/// (DESIGN.md §10); boosted ensembles score through GbdtClassifier's leaf
/// bitvectors instead.
///
/// `Tree` keeps a heap-allocated `std::vector<double>` per node, so a
/// traversal chases a pointer per node. FlatForest re-lays an ensemble into
/// contiguous arrays (feature / threshold / children / node-major leaf
/// values), making a prediction a handful of sequential array reads with
/// zero allocation. Traversal performs the same comparisons in the same
/// order as Tree::FindLeaf, so predictions are bit-identical to the
/// tree-walking path — `Tree` remains the source of truth for training,
/// serialization, and SHAP; FlatForest is a derived, compiled view.
class FlatForest {
 public:
  /// Appends a tree. Every added tree must share one leaf-value width;
  /// the first Add fixes value_stride(). The tree must already satisfy
  /// ValidateTree's structural invariants (trained trees do).
  void Add(const Tree& tree);

  bool empty() const { return roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  /// Leaf values per node (1 for regression trees, K for classification
  /// forests). 0 until the first Add.
  size_t value_stride() const { return value_stride_; }
  /// 1 + the largest feature index any tree splits on; rows passed to the
  /// predict calls must hold at least this many values.
  size_t num_features() const { return num_features_; }

  /// Forest-wide index of the leaf `row` reaches in tree `t`.
  size_t FindLeaf(size_t t, const double* row) const {
    size_t i = static_cast<size_t>(roots_[t]);
    int f = feature_[i];
    while (f >= 0) {
      i = static_cast<size_t>(row[static_cast<size_t>(f)] <= threshold_[i]
                                  ? left_[i]
                                  : right_[i]);
      f = feature_[i];
    }
    return i;
  }

  /// The value_stride() leaf values `row` reaches in tree `t`.
  const double* Values(size_t t, const double* row) const {
    return &value_[FindLeaf(t, row) * value_stride_];
  }

  /// Element `k` of the leaf values `row` reaches in tree `t`.
  double PredictScalar(size_t t, const double* row, size_t k = 0) const {
    return Values(t, row)[k];
  }

 private:
  std::vector<int32_t> feature_;    // -1 marks a leaf
  std::vector<double> threshold_;
  std::vector<int32_t> left_, right_;  // forest-wide node indices
  std::vector<double> value_;       // node-major, value_stride_ per node
  std::vector<int32_t> roots_;      // first node of each tree
  size_t value_stride_ = 0;
  size_t num_features_ = 0;
};

/// Structural validation for trees decoded from disk (io/serialize.h):
/// non-empty, every node's value has `value_size` finite entries, internal
/// nodes reference in-range features and children with indices strictly
/// greater than their own (which guarantees FindLeaf terminates), leaves
/// have no children. A tree that passes cannot crash prediction no matter
/// what bytes it was decoded from.
Status ValidateTree(const Tree& tree, int num_features, size_t value_size);

/// \brief Hyper-parameters for tree induction.
struct TreeConfig {
  int max_depth = 10;
  int min_samples_leaf = 1;
  int min_samples_split = 2;
  /// Features considered per split; -1 means all.
  int max_features = -1;
  /// Minimum impurity decrease (classification: Gini; regression: variance)
  /// required to split.
  double min_gain = 1e-12;
};

/// \brief Binned view of a training set, shared across the trees of an
/// ensemble so binning happens once.
struct BinnedDataset {
  const FeatureBinner* binner = nullptr;  // not owned
  std::vector<std::vector<uint8_t>> columns;  // [feature][row]
  size_t num_rows = 0;

  static Result<BinnedDataset> Make(const FeatureBinner& binner,
                                    const Dataset& d);
};

/// \brief Trains a classification tree (leaves hold class distributions)
/// on the rows listed in `sample_idx` (duplicates allowed — bootstrap).
/// `split_gain` accumulates Gini importance per feature if non-null.
Result<Tree> TrainClassificationTree(const BinnedDataset& data,
                                     const std::vector<int>& labels,
                                     int num_classes,
                                     const std::vector<size_t>& sample_idx,
                                     const TreeConfig& config, Rng* rng,
                                     std::vector<double>* split_gain);

/// \brief Trains a regression tree (leaves hold {mean target}).
Result<Tree> TrainRegressionTree(const BinnedDataset& data,
                                 const std::vector<double>& targets,
                                 const std::vector<size_t>& sample_idx,
                                 const TreeConfig& config, Rng* rng,
                                 std::vector<double>* split_gain);

}  // namespace ml
}  // namespace rvar

#endif  // RVAR_ML_TREE_H_
