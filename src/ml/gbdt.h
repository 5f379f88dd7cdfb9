// Copyright 2026 The rvar Authors.
//
// Gradient-boosted decision trees in the LightGBM style: histogram-based
// split finding, leaf-wise (best-first) growth, second-order (Newton) leaf
// values, softmax multiclass objective. This is the paper's primary
// classifier (LightGBMClassifier had the highest accuracy in Section 5.2).

#ifndef RVAR_ML_GBDT_H_
#define RVAR_ML_GBDT_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/model.h"
#include "ml/tree.h"

namespace rvar {
namespace ml {

/// The most leaves one boosted tree may hold: inference keeps one 64-bit
/// leaf bitvector per tree (see GbdtClassifier). Fit rejects a larger
/// GbdtConfig::max_leaves and Restore a tree that reaches more leaves,
/// both with InvalidArgument, so every model that exists can be scored.
inline constexpr int kMaxGbdtLeaves = 64;

/// \brief Hyper-parameters of the boosted ensemble.
struct GbdtConfig {
  int num_rounds = 100;
  double learning_rate = 0.1;
  /// Leaf-wise growth stops when a tree reaches this many leaves; at most
  /// kMaxGbdtLeaves.
  int max_leaves = 31;
  int max_depth = 12;
  /// Minimum hessian-weighted sample count per leaf.
  double min_child_weight = 1.0;
  int min_samples_leaf = 5;
  /// L2 regularization on leaf values (XGBoost lambda).
  double lambda_l2 = 1.0;
  /// Minimum split gain.
  double min_gain = 1e-6;
  int max_bins = 255;
  /// Fraction of features considered per tree.
  double feature_fraction = 1.0;
  /// Fraction of rows (without replacement) per tree.
  double bagging_fraction = 1.0;
  /// Stop if validation logloss has not improved for this many rounds
  /// (requires FitWithValidation); 0 disables.
  int early_stopping_rounds = 0;
  /// Derive the larger child's histogram by subtracting the smaller
  /// child's from the cached parent histogram (≈2x less histogram work)
  /// instead of building both children from rows. Which child is built
  /// directly depends only on the partition sizes, never on the thread
  /// count, so determinism is unaffected; gains drift by at most ~1e-12
  /// relative to direct builds (see DESIGN.md §10). Off is for the
  /// equivalence tests; not serialized (training-time knob, not model
  /// state).
  bool use_hist_subtraction = true;
  uint64_t seed = 29;
};

/// \brief Multiclass gradient-boosted tree classifier.
class GbdtClassifier : public Classifier {
 public:
  explicit GbdtClassifier(GbdtConfig config = {});

  /// Reassembles a fitted classifier from persisted parts (io/serialize.h).
  /// `trees[k][r]` is the round-r tree for class k (leaf values already
  /// learning-rate scaled, as trees_for_class exposes them); `importance`
  /// is sized to the feature count, which every tree is validated against.
  /// Never crashes on hostile parts — malformed trees, trees that reach
  /// more than kMaxGbdtLeaves leaves, size mismatches, and non-finite
  /// scores all return InvalidArgument.
  static Result<GbdtClassifier> Restore(
      const GbdtConfig& config, int num_classes,
      std::vector<double> base_scores, std::vector<std::vector<Tree>> trees,
      std::vector<double> importance);

  Status Fit(const Dataset& d) override;

  /// Fit with early stopping monitored on `valid` (multiclass logloss).
  Status FitWithValidation(const Dataset& train, const Dataset& valid);

  /// Boosts `config().num_rounds` additional rounds on top of `parent`:
  /// the parent's trees and base scores are copied in, each row's initial
  /// raw score is the parent's prediction, and new trees fit the residual
  /// gradients — the online-lifecycle retrain path, where a candidate
  /// continues from the serving model instead of relearning it. `train`
  /// must present the parent's feature count and no labels beyond its
  /// class count. Deterministic: same parent + data + config (seed) gives
  /// a bit-identical model at any thread count. The optional `valid` set
  /// enables early stopping, which truncates only the newly added rounds.
  Status FitWarmStart(const Dataset& train, const GbdtClassifier& parent,
                      const Dataset* valid = nullptr);

  std::vector<double> PredictProba(
      const std::vector<double>& row) const override;
  int num_classes() const override { return num_classes_; }

  /// Raw (pre-softmax) per-class scores; base_score + sum of tree outputs.
  std::vector<double> PredictRaw(const std::vector<double>& row) const;

  /// Allocation-free variants: *out is resized to num_classes and
  /// overwritten. Callers on hot paths keep one buffer per thread and
  /// reuse it across rows; results are bit-identical to
  /// PredictRaw/PredictProba. Every predict call scores through the
  /// compiled leaf bitvectors, and each class sums its trees in round
  /// order, so scores are bit-identical to walking trees_for_class with
  /// Tree::FindLeaf.
  void PredictRawInto(const std::vector<double>& row,
                      std::vector<double>* out) const;
  void PredictProbaInto(const std::vector<double>& row,
                        std::vector<double>* out) const;

  /// Batch prediction for offline callers: *out is resized to
  /// rows.size() * num_classes with row i's scores at [i*K, (i+1)*K).
  /// Rows fan out over the pool (common/parallel.h), each scored exactly
  /// as PredictRawInto scores it, so results are bit-identical to the
  /// per-row calls at any thread count.
  void PredictRawBatchInto(const std::vector<std::vector<double>>& rows,
                           std::vector<double>* out) const;
  void PredictProbaBatchInto(const std::vector<std::vector<double>>& rows,
                             std::vector<double>* out) const;

  /// Total split-gain importance per feature (normalized to sum to 1).
  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  /// Trees for class k across rounds (leaf values already scaled by the
  /// learning rate). Needed by TreeSHAP.
  const std::vector<Tree>& trees_for_class(int k) const;

  /// Per-class additive base score (log prior).
  double base_score(int k) const;

  /// Number of boosting rounds actually kept (== num_rounds unless early
  /// stopping truncated).
  int rounds_used() const;

  const GbdtConfig& config() const { return config_; }

 private:
  Status FitImpl(const Dataset& train, const Dataset* valid,
                 const GbdtClassifier* parent = nullptr);

  /// Leaf-bitvector form of trees_ (QuickScorer: Lucchese et al., SIGIR
  /// 2015); derived, never serialized. Trees are numbered round-major
  /// (tree t = r * K + k). Each tree's leaves are numbered left to right,
  /// and one 64-bit word per tree marks the leaves a row can still reach.
  /// A split node the row fails (!(x <= threshold), so NaN too) clears
  /// the leaves of its left subtree; the lowest bit left is the exit leaf
  /// Tree::FindLeaf reaches.
  struct LeafScorer {
    /// Split nodes grouped by feature — feature f's at
    /// [node_begin[f], node_begin[f + 1]) — each group sorted by
    /// threshold, so a row's scan of a group stops at its first passed
    /// node.
    std::vector<size_t> node_begin;
    std::vector<double> node_threshold;
    std::vector<uint32_t> node_tree;
    /// Clears the node's left-subtree leaves in its tree's word.
    std::vector<uint64_t> node_mask;
    /// Tree t's leaf values, left to right, start at leaf_begin[t].
    std::vector<uint32_t> leaf_begin;
    std::vector<double> leaf_value;
  };

  /// Rebuilds scorer_ from trees_. Called at the end of Fit and Restore;
  /// InvalidArgument if a tree reaches more than kMaxGbdtLeaves leaves.
  Status CompileScorer();

  /// out[k] = base_score(k) + class k's leaf values for `row`, summed in
  /// round order. `row` holds at least node_begin.size() - 1 values (1 +
  /// the largest split feature); `out` holds num_classes.
  void ScoreInto(const double* row, double* out) const;

  GbdtConfig config_;
  int num_classes_ = 0;
  std::vector<double> base_scores_;
  // trees_[k][r]: tree for class k at round r.
  std::vector<std::vector<Tree>> trees_;
  LeafScorer scorer_;
  std::vector<double> importance_;
};

}  // namespace ml
}  // namespace rvar

#endif  // RVAR_ML_GBDT_H_
