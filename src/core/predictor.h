// Copyright 2026 The rvar Authors.
//
// The paper's 2-step variation predictor (Section 5): (1) canonical shapes
// are discovered on the historic dataset and every job group is labeled
// with its most-likely shape via posterior likelihood; (2) a multiclass
// GBDT learns to predict the shape from compile/submit-time features.
// Includes the evaluation protocol of Figure 7 (confusion matrix, accuracy
// vs. historic occurrences).

#ifndef RVAR_CORE_PREDICTOR_H_
#define RVAR_CORE_PREDICTOR_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/assigner.h"
#include "core/featurizer.h"
#include "core/shape_library.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"

namespace rvar {
namespace core {

/// \brief End-to-end training knobs.
struct PredictorConfig {
  ShapeLibraryConfig shape;
  ml::GbdtConfig gbdt;
  /// Drop highly correlated features before fitting (the paper's
  /// importance-guided passive-aggressive selection).
  bool apply_feature_selection = true;
  double max_abs_correlation = 0.98;
  /// Groups need this many observations in a slice to receive a label.
  int min_label_support = 3;
};

/// \brief Figure 7's evaluation artifacts.
struct PredictorEvaluation {
  double accuracy = 0.0;
  ml::ConfusionMatrix confusion;
  /// Accuracy bucketed by the group's number of historic occurrences.
  struct SupportBucket {
    int lo = 0, hi = 0;  ///< inclusive occurrence range
    int num_groups = 0;
    int num_runs = 0;
    double accuracy = 0.0;
  };
  std::vector<SupportBucket> by_support;
};

/// \brief Reusable buffers for PredictFromFeatures.
/// Hot batch loops keep one instance per thread and reuse it across rows,
/// so projection and softmax scoring allocate nothing in steady state.
struct PredictScratch {
  std::vector<double> projected;
  std::vector<double> proba;
};

/// \brief The trained 2-step model.
class VariationPredictor {
 public:
  /// Trains on a study suite: shapes from D1, labels and classifier from
  /// D2. Fails if D1 lacks qualifying groups or D2 yields fewer than two
  /// distinct labels.
  static Result<std::unique_ptr<VariationPredictor>> Train(
      const sim::StudySuite& suite, PredictorConfig config);

  const PredictorConfig& config() const { return config_; }
  const ShapeLibrary& shapes() const { return *shapes_; }
  const Featurizer& featurizer() const { return *featurizer_; }
  const PosteriorAssigner& assigner() const { return *assigner_; }
  /// The current classifier. Stable only while no concurrent SwapModel;
  /// threaded readers take ModelSnapshot() instead.
  const ml::GbdtClassifier& model() const { return *model_; }
  const GroupMedians& medians() const { return medians_; }

  /// Atomically replaces the classifier epoch (RCU-style): the pointer
  /// copy happens under a micro-mutex, in-flight batches finish on the
  /// snapshot they took, and the displaced model is released outside the
  /// lock. The replacement must be fitted and shape-compatible (same
  /// class count as the shape library, same feature count as the kept
  /// projection); InvalidArgument otherwise, with serving untouched.
  Status SwapModel(std::shared_ptr<const ml::GbdtClassifier> model);

  /// The classifier epoch readers hold across a whole batch; never blocks
  /// on more than the pointer copy.
  std::shared_ptr<const ml::GbdtClassifier> ModelSnapshot() const;

  /// Feature indices (into the featurizer's full vector) kept after
  /// selection; identity when selection is disabled.
  const std::vector<size_t>& kept_features() const { return kept_; }

  /// Importance of each *full* feature (zero for dropped ones).
  std::vector<double> FullFeatureImportance() const;

  /// Labels every group of `slice` with >= min_support runs by posterior
  /// likelihood (the ground-truth protocol).
  Result<std::unordered_map<int, int>> LabelGroups(
      const sim::TelemetryStore& slice, int min_support) const;

  /// Predicted shape for one run.
  Result<int> PredictShape(const sim::JobRun& run) const;

  /// Predicted shapes for a batch of runs, in order: the offline path
  /// (Evaluate, oracles). Chunks of runs are scored as
  /// PredictShapeBatchInto scores them, in parallel (common/parallel.h);
  /// the result is identical to a serial PredictShape loop at any thread
  /// count.
  Result<std::vector<int>> PredictShapeBatch(
      const std::vector<const sim::JobRun*>& runs) const;

  /// Epoch-pinned batch variant for serving: scores every run against
  /// `model` (a snapshot the caller pinned, possibly a stale epoch the
  /// predictor no longer holds) and reports per-run outcomes instead of
  /// folding them into one batch error. Returns non-OK only for
  /// batch-level incompatibility (model/shape-library class-count or
  /// feature-count mismatch), in which case no output is written. On OK,
  /// shapes[i] is the prediction (-1 when run_status[i] is non-OK, e.g. a
  /// featurization failure for that run alone). Runs are scored inline on
  /// the calling thread, never in the shared pool, with buffers that
  /// thread reuses across calls.
  Status PredictShapeBatchInto(const ml::GbdtClassifier& model,
                               const std::vector<const sim::JobRun*>& runs,
                               std::vector<int>* shapes,
                               std::vector<Status>* run_status) const;

  /// Predicted shape from a FULL feature vector (the featurizer's
  /// layout; projection happens internally), scored against `model` — an
  /// epoch the caller pinned with ModelSnapshot(), so a concurrent
  /// SwapModel cannot split a batch or a before/after comparison across
  /// model versions. Reuses `scratch` across calls; on OK the class
  /// probabilities are left in scratch->proba.
  Result<int> PredictFromFeatures(const ml::GbdtClassifier& model,
                                  const std::vector<double>& full_features,
                                  PredictScratch* scratch) const;

  /// Figure 7 evaluation on a test slice.
  Result<PredictorEvaluation> Evaluate(
      const sim::TelemetryStore& test_slice) const;

  /// Draws `n` normalized-runtime samples from a shape's PMF.
  std::vector<double> SampleNormalized(int cluster, int n, Rng* rng) const;

  /// Number of historic runs backing a group in the training history.
  int HistorySupport(int group_id) const;

 private:
  VariationPredictor() = default;

  /// InvalidArgument unless `model` predicts the shape library's classes
  /// over the kept features.
  Status CheckModel(const ml::GbdtClassifier& model) const;

  /// Scores runs[0, n) against `model` into shapes[i] / run_status[i] on
  /// the calling thread, reusing that thread's feature and scoring
  /// buffers. The caller has checked `model` and set every shape to -1
  /// and every status to OK.
  void ScoreRuns(const ml::GbdtClassifier& model,
                 const sim::JobRun* const* runs, size_t n, int* shapes,
                 Status* run_status) const;

  PredictorConfig config_;
  // Owned copies so the featurizer's pointers stay valid.
  std::vector<sim::JobGroupSpec> groups_;
  sim::SkuCatalog catalog_;
  GroupMedians medians_;
  std::unique_ptr<ShapeLibrary> shapes_;
  std::unique_ptr<PosteriorAssigner> assigner_;
  std::unique_ptr<Featurizer> featurizer_;
  /// Serving epoch: immutable once published; replaced whole by SwapModel.
  mutable std::mutex model_mu_;  ///< guards the pointer copy only
  std::shared_ptr<const ml::GbdtClassifier> model_;
  std::vector<size_t> kept_;
  std::unordered_map<int, int> history_support_;
};

}  // namespace core
}  // namespace rvar

#endif  // RVAR_CORE_PREDICTOR_H_
