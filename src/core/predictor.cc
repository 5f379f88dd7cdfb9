#include "core/predictor.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "ml/feature_select.h"
#include "obs/export.h"

namespace rvar {
namespace core {

namespace {

/// Cached handles into the process registry (obs/metrics.h); magic-static
/// initialization keeps first use thread-safe.
struct PredictorMetrics {
  obs::Counter* train_total;
  obs::Counter* train_rounds_total;
  obs::Counter* predictions_total;
  obs::Counter* model_swaps_total;
  obs::Histogram* train_rows;
  obs::Histogram* predict_batch_size;
  obs::Histogram* train_latency;

  static const PredictorMetrics& Get() {
    static const PredictorMetrics metrics = [] {
      obs::Registry& r = obs::Registry::Default();
      // Row/batch-size histograms span counts, not seconds.
      const obs::HistogramOptions sizes{1.0, 1e7, 35};
      return PredictorMetrics{
          r.GetCounter("predictor_train_total"),
          r.GetCounter("predictor_train_rounds_total"),
          r.GetCounter("predictor_predictions_total"),
          r.GetCounter("predictor_model_swaps_total"),
          r.GetHistogram("predictor_train_rows", sizes),
          r.GetHistogram("predictor_predict_batch_size", sizes),
          r.GetHistogram("predictor_train_latency_seconds")};
    }();
    return metrics;
  }
};

}  // namespace

Result<std::unique_ptr<VariationPredictor>> VariationPredictor::Train(
    const sim::StudySuite& suite, PredictorConfig config) {
  obs::ScopedSpan span("predictor/train");
  obs::ScopedLatencyTimer timer(PredictorMetrics::Get().train_latency);
  auto predictor = std::unique_ptr<VariationPredictor>(
      new VariationPredictor());
  predictor->config_ = config;
  predictor->groups_ = suite.groups;
  predictor->catalog_ = suite.cluster->catalog();

  // Step 0: historic medians and shape library from D1.
  predictor->medians_ =
      GroupMedians::FromTelemetry(suite.d1.telemetry);
  {
    obs::ScopedSpan phase("predictor/build_shape_library");
    RVAR_ASSIGN_OR_RETURN(
        ShapeLibrary shapes,
        ShapeLibrary::Build(suite.d1.telemetry, predictor->medians_,
                            config.shape));
    predictor->shapes_ = std::make_unique<ShapeLibrary>(std::move(shapes));
  }
  predictor->assigner_ =
      std::make_unique<PosteriorAssigner>(predictor->shapes_.get());

  // Step 1: label D2 groups by posterior likelihood.
  RVAR_ASSIGN_OR_RETURN(auto labels, [&] {
    obs::ScopedSpan phase("predictor/label_groups");
    return predictor->LabelGroups(suite.d2.telemetry,
                                  config.min_label_support);
  }());
  std::set<int> distinct;
  for (const auto& [gid, label] : labels) distinct.insert(label);
  if (distinct.size() < 2) {
    return Status::FailedPrecondition(
        StrCat("training labels collapse to ", distinct.size(),
               " distinct shapes"));
  }

  // Step 2: features from compile/submit-time information, with history
  // taken from D1.
  predictor->featurizer_ = std::make_unique<Featurizer>(
      &predictor->groups_, &predictor->catalog_);
  {
    obs::ScopedSpan phase("predictor/set_history");
    predictor->featurizer_->SetHistory(suite.d1.telemetry);
    for (int gid : suite.d1.telemetry.GroupIds()) {
      predictor->history_support_[gid] = suite.d1.telemetry.Support(gid);
    }
  }
  RVAR_ASSIGN_OR_RETURN(ml::Dataset train, [&] {
    obs::ScopedSpan phase("predictor/featurize");
    return predictor->featurizer_->BuildDataset(suite.d2.telemetry, labels);
  }());
  if (train.NumRows() == 0) {
    return Status::FailedPrecondition("no labeled training rows");
  }

  // Force the label space to cover all shapes (GBDT sizes its output by
  // max label + 1; the paper's label space is the K shapes).
  const int num_shapes = predictor->shapes_->num_clusters();

  // Optional importance-guided correlation filtering.
  predictor->kept_.resize(train.NumFeatures());
  for (size_t f = 0; f < train.NumFeatures(); ++f) {
    predictor->kept_[f] = f;
  }
  if (config.apply_feature_selection) {
    ml::GbdtConfig probe_config = config.gbdt;
    probe_config.num_rounds = std::min(config.gbdt.num_rounds, 15);
    ml::GbdtClassifier probe(probe_config);
    {
      obs::ScopedSpan phase("predictor/probe_fit");
      RVAR_RETURN_NOT_OK(probe.Fit(train));
    }
    obs::ScopedSpan phase("predictor/select_features");
    RVAR_ASSIGN_OR_RETURN(
        ml::FeatureSelection selection,
        ml::SelectUncorrelatedFeatures(train, probe.feature_importance(),
                                       config.max_abs_correlation));
    std::sort(selection.kept.begin(), selection.kept.end());
    predictor->kept_ = std::move(selection.kept);
    train = ml::ProjectFeatures(train, predictor->kept_);
  }

  // Pad the training set with the class range: GBDT must know all K
  // classes even if a shape is missing from D2 labels. We add no fake rows;
  // instead we validate the labels fit in [0, K).
  for (int label : train.y) {
    if (label < 0 || label >= num_shapes) {
      return Status::Internal(StrCat("label ", label, " outside shape range"));
    }
  }

  auto model = std::make_shared<ml::GbdtClassifier>(config.gbdt);
  {
    obs::ScopedSpan phase("predictor/fit_gbdt");
    RVAR_RETURN_NOT_OK(model->Fit(train));
  }
  predictor->model_ = std::move(model);
  const PredictorMetrics& metrics = PredictorMetrics::Get();
  metrics.train_total->Increment();
  metrics.train_rounds_total->Increment(config.gbdt.num_rounds);
  metrics.train_rows->Observe(static_cast<double>(train.NumRows()));
  return predictor;
}

Status VariationPredictor::SwapModel(
    std::shared_ptr<const ml::GbdtClassifier> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("SwapModel requires a non-null model");
  }
  if (model->num_classes() != shapes_->num_clusters()) {
    return Status::InvalidArgument(
        StrCat("replacement model predicts ", model->num_classes(),
               " classes but the shape library has ",
               shapes_->num_clusters()));
  }
  if (model->feature_importance().size() != kept_.size()) {
    return Status::InvalidArgument(
        StrCat("replacement model expects ",
               model->feature_importance().size(), " features but ",
               kept_.size(), " are kept after selection"));
  }
  std::shared_ptr<const ml::GbdtClassifier> displaced;
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    displaced = std::move(model_);
    model_ = std::move(model);
  }
  // `displaced` releases outside the lock: if this thread holds the last
  // reference, the forest's destructor must not run under model_mu_.
  PredictorMetrics::Get().model_swaps_total->Increment();
  return Status::OK();
}

std::shared_ptr<const ml::GbdtClassifier> VariationPredictor::ModelSnapshot()
    const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

std::vector<double> VariationPredictor::FullFeatureImportance() const {
  const std::shared_ptr<const ml::GbdtClassifier> model = ModelSnapshot();
  const std::vector<double>& kept_imp = model->feature_importance();
  // The model is fit on exactly the kept columns, so a length mismatch
  // means the selection bookkeeping and the model disagree — a programmer
  // error that must not silently drop importances.
  RVAR_CHECK_EQ(kept_.size(), kept_imp.size());
  std::vector<double> full(featurizer_->FeatureNames().size(), 0.0);
  for (size_t i = 0; i < kept_.size(); ++i) {
    full[kept_[i]] = kept_imp[i];
  }
  return full;
}

Result<std::unordered_map<int, int>> VariationPredictor::LabelGroups(
    const sim::TelemetryStore& slice, int min_support) const {
  std::unordered_map<int, int> labels;
  for (int gid : slice.GroupsWithSupport(min_support)) {
    if (!medians_.Has(gid)) continue;  // no historic median -> skip
    auto normalized = NormalizedGroupRuntimes(
        slice, gid, medians_, config_.shape.normalization);
    if (!normalized.ok()) continue;
    RVAR_ASSIGN_OR_RETURN(int label, assigner_->Assign(*normalized));
    labels[gid] = label;
  }
  return labels;
}

Result<int> VariationPredictor::PredictShape(const sim::JobRun& run) const {
  PredictorMetrics::Get().predictions_total->Increment();
  const sim::JobRun* runs[] = {&run};
  int shape = -1;
  Status status;
  ScoreRuns(*ModelSnapshot(), runs, 1, &shape, &status);
  RVAR_RETURN_NOT_OK(status);
  return shape;
}

Result<std::vector<int>> VariationPredictor::PredictShapeBatch(
    const std::vector<const sim::JobRun*>& runs) const {
  obs::ScopedSpan span("predictor/predict_batch");
  const PredictorMetrics& metrics = PredictorMetrics::Get();
  metrics.predict_batch_size->Observe(static_cast<double>(runs.size()));
  // Pin the model epoch once for the whole batch: a concurrent SwapModel
  // cannot split the batch across versions.
  const std::shared_ptr<const ml::GbdtClassifier> model = ModelSnapshot();
  RVAR_RETURN_NOT_OK(CheckModel(*model));
  metrics.predictions_total->Increment(static_cast<int64_t>(runs.size()));
  // Featurization and inference are pure reads of the trained state and
  // each run lands in its own slot, so chunking changes nothing.
  std::vector<int> predicted(runs.size(), -1);
  std::vector<Status> run_status(runs.size(), Status::OK());
  ParallelFor(runs.size(), /*grain=*/256, [&](size_t begin, size_t end) {
    ScoreRuns(*model, runs.data() + begin, end - begin,
              predicted.data() + begin, run_status.data() + begin);
  });
  for (const Status& st : run_status) RVAR_RETURN_NOT_OK(st);
  return predicted;
}

Status VariationPredictor::CheckModel(const ml::GbdtClassifier& model) const {
  if (model.num_classes() != shapes_->num_clusters()) {
    return Status::InvalidArgument(
        StrCat("model predicts ", model.num_classes(),
               " classes but the shape library has ",
               shapes_->num_clusters()));
  }
  if (model.feature_importance().size() != kept_.size()) {
    return Status::InvalidArgument(
        StrCat("model expects ", model.feature_importance().size(),
               " features but ", kept_.size(),
               " are kept after selection"));
  }
  return Status::OK();
}

Status VariationPredictor::PredictShapeBatchInto(
    const ml::GbdtClassifier& model,
    const std::vector<const sim::JobRun*>& runs, std::vector<int>* shapes,
    std::vector<Status>* run_status) const {
  // Batch-level compatibility first: a wrong-shaped epoch (e.g. a stale
  // snapshot trained against an older library) must fail the whole batch
  // before any per-run work, so the caller can fall to the next rung.
  RVAR_RETURN_NOT_OK(CheckModel(model));
  shapes->assign(runs.size(), -1);
  run_status->assign(runs.size(), Status::OK());
  PredictorMetrics::Get().predictions_total->Increment(
      static_cast<int64_t>(runs.size()));
  ScoreRuns(model, runs.data(), runs.size(), shapes->data(),
            run_status->data());
  return Status::OK();
}

void VariationPredictor::ScoreRuns(const ml::GbdtClassifier& model,
                                   const sim::JobRun* const* runs, size_t n,
                                   int* shapes, Status* run_status) const {
  thread_local std::vector<double> features;
  thread_local PredictScratch scratch;
  features.resize(featurizer_->FeatureNames().size());
  for (size_t i = 0; i < n; ++i) {
    if (runs[i] == nullptr) {
      run_status[i] = Status::InvalidArgument("null run in batch");
      continue;
    }
    Status st = featurizer_->FeaturesInto(*runs[i], features.data());
    if (!st.ok()) {
      run_status[i] = std::move(st);
      continue;
    }
    Result<int> shape = PredictFromFeatures(model, features, &scratch);
    if (shape.ok()) {
      shapes[i] = *shape;
    } else {
      run_status[i] = shape.status();
    }
  }
}

Result<int> VariationPredictor::PredictFromFeatures(
    const ml::GbdtClassifier& model, const std::vector<double>& full_features,
    PredictScratch* scratch) const {
  if (full_features.size() != featurizer_->FeatureNames().size()) {
    return Status::InvalidArgument(
        StrCat("expected ", featurizer_->FeatureNames().size(),
               " features, got ", full_features.size()));
  }
  scratch->projected.clear();
  scratch->projected.reserve(kept_.size());
  for (size_t f : kept_) scratch->projected.push_back(full_features[f]);
  model.PredictProbaInto(scratch->projected, &scratch->proba);
  const std::vector<double>& proba = scratch->proba;
  int best = 0;
  for (size_t k = 1; k < proba.size(); ++k) {
    if (proba[k] > proba[static_cast<size_t>(best)]) {
      best = static_cast<int>(k);
    }
  }
  return best;
}

Result<PredictorEvaluation> VariationPredictor::Evaluate(
    const sim::TelemetryStore& test_slice) const {
  using GroupLabels = std::unordered_map<int, int>;
  RVAR_ASSIGN_OR_RETURN(
      GroupLabels truth,
      LabelGroups(test_slice, config_.min_label_support));
  if (truth.empty()) {
    return Status::FailedPrecondition("no labelable groups in test slice");
  }

  // Collect the labelable runs, predict them as one parallel batch, then
  // aggregate serially in run order.
  std::vector<const sim::JobRun*> selected;
  std::vector<int> y_true;
  for (const sim::JobRun& run : test_slice.runs()) {
    const auto it = truth.find(run.group_id);
    if (it == truth.end()) continue;
    selected.push_back(&run);
    y_true.push_back(it->second);
  }
  RVAR_ASSIGN_OR_RETURN(std::vector<int> y_pred,
                        PredictShapeBatch(selected));

  struct PerGroup {
    int support = 0;
    int runs = 0;
    int hits = 0;
  };
  std::unordered_map<int, PerGroup> per_group;
  for (size_t i = 0; i < selected.size(); ++i) {
    PerGroup& pg = per_group[selected[i]->group_id];
    pg.support = HistorySupport(selected[i]->group_id);
    pg.runs++;
    pg.hits += (y_pred[i] == y_true[i]);
  }

  PredictorEvaluation eval;
  RVAR_ASSIGN_OR_RETURN(eval.accuracy, ml::Accuracy(y_true, y_pred));
  RVAR_ASSIGN_OR_RETURN(
      eval.confusion,
      ml::BuildConfusionMatrix(y_true, y_pred, shapes_->num_clusters()));

  // Figure 7b buckets by historic occurrences.
  const std::vector<std::pair<int, int>> buckets = {
      {1, 5}, {6, 10}, {11, 15}, {16, 50}, {51, 200}, {201, 1 << 30}};
  for (const auto& [lo, hi] : buckets) {
    PredictorEvaluation::SupportBucket b;
    b.lo = lo;
    b.hi = hi;
    int hits = 0;
    for (const auto& [gid, pg] : per_group) {
      if (pg.support >= lo && pg.support <= hi) {
        b.num_groups++;
        b.num_runs += pg.runs;
        hits += pg.hits;
      }
    }
    b.accuracy = b.num_runs > 0
                     ? static_cast<double>(hits) / b.num_runs
                     : 0.0;
    eval.by_support.push_back(b);
  }
  return eval;
}

std::vector<double> VariationPredictor::SampleNormalized(int cluster, int n,
                                                         Rng* rng) const {
  return SamplePmf(shapes_->grid(), shapes_->shape(cluster), n, rng);
}

int VariationPredictor::HistorySupport(int group_id) const {
  const auto it = history_support_.find(group_id);
  return it == history_support_.end() ? 0 : it->second;
}

}  // namespace core
}  // namespace rvar
