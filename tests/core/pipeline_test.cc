// End-to-end integration tests: simulate a study suite, train the 2-step
// predictor, evaluate it, run the baseline comparison, explanations, and
// what-if scenarios — the full Figure 2 framework in one flow.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>

#include "core/baseline.h"
#include "core/explainer.h"
#include "core/predictor.h"
#include "core/report.h"
#include "core/whatif.h"

namespace rvar {
namespace core {
namespace {

// One shared suite + predictor across tests (expensive to build).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SuiteConfig config;
    config.num_groups = 60;
    config.d1_days = 4.0;
    config.d2_days = 2.0;
    config.d3_days = 1.0;
    config.d1_support = 15;
    config.workload.min_period_seconds = 600.0;
    config.workload.max_period_seconds = 4.0 * 3600.0;
    config.seed = 2024;
    auto suite = sim::BuildStudySuite(config);
    ASSERT_TRUE(suite.ok()) << suite.status().ToString();
    suite_ = new sim::StudySuite(std::move(*suite));

    PredictorConfig pc;
    pc.shape.num_clusters = 5;
    pc.shape.min_support = 15;
    pc.shape.kmeans.num_restarts = 4;
    pc.gbdt.num_rounds = 40;
    auto predictor = VariationPredictor::Train(*suite_, pc);
    ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
    predictor_ = predictor->release();
  }

  static void TearDownTestSuite() {
    delete predictor_;
    delete suite_;
    predictor_ = nullptr;
    suite_ = nullptr;
  }

  static sim::StudySuite* suite_;
  static VariationPredictor* predictor_;
};

sim::StudySuite* PipelineTest::suite_ = nullptr;
VariationPredictor* PipelineTest::predictor_ = nullptr;

TEST_F(PipelineTest, ShapesDiscovered) {
  const ShapeLibrary& shapes = predictor_->shapes();
  EXPECT_EQ(shapes.num_clusters(), 5);
  EXPECT_GT(shapes.reference_groups().size(), 5u);
  EXPECT_GT(shapes.inertia(), 0.0);
  // IQR ordering.
  for (int c = 1; c < shapes.num_clusters(); ++c) {
    EXPECT_GE(shapes.stats(c).iqr, shapes.stats(c - 1).iqr);
  }
}

TEST_F(PipelineTest, PredictionAccuracyBeatsChance) {
  auto eval = predictor_->Evaluate(suite_->d3.telemetry);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  // 5 classes: chance ~20-40% (majority class). The 2-step model should be
  // far above; the paper reports >96% at production scale.
  EXPECT_GT(eval->accuracy, 0.7) << "accuracy " << eval->accuracy;
  EXPECT_EQ(eval->confusion.num_classes, 5);
  EXPECT_NEAR(eval->confusion.DiagonalMass(), eval->accuracy, 1e-9);
  // Support buckets exist and cover all evaluated runs.
  int64_t bucket_runs = 0;
  for (const auto& b : eval->by_support) bucket_runs += b.num_runs;
  EXPECT_GT(bucket_runs, 0);
}

TEST_F(PipelineTest, LabelsAgreeBetweenStepsOnTrainingSlice) {
  // The classifier should reproduce the posterior labels on D2 (it was
  // trained on them).
  auto labels = predictor_->LabelGroups(suite_->d2.telemetry, 3);
  ASSERT_TRUE(labels.ok());
  ASSERT_FALSE(labels->empty());
  int hits = 0, total = 0;
  for (const sim::JobRun& run : suite_->d2.telemetry.runs()) {
    const auto it = labels->find(run.group_id);
    if (it == labels->end()) continue;
    auto predicted = predictor_->PredictShape(run);
    ASSERT_TRUE(predicted.ok());
    hits += (*predicted == it->second);
    ++total;
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.8);
}

TEST_F(PipelineTest, FeatureImportanceMapsBackToFullSpace) {
  const std::vector<double> imp = predictor_->FullFeatureImportance();
  EXPECT_EQ(imp.size(), predictor_->featurizer().FeatureNames().size());
  const double total = std::accumulate(imp.begin(), imp.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  // Dropped features carry zero importance.
  std::vector<bool> kept(imp.size(), false);
  for (size_t f : predictor_->kept_features()) kept[f] = true;
  for (size_t f = 0; f < imp.size(); ++f) {
    if (!kept[f]) {
      EXPECT_EQ(imp[f], 0.0);
    }
  }
}

TEST_F(PipelineTest, BaselineComparisonFavorsProposedOnKs) {
  ml::ForestConfig forest_config;
  forest_config.num_trees = 40;
  auto baseline =
      RegressionBaseline::Train(*suite_, *predictor_, forest_config);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  Rng rng(5);
  auto cmp = CompareReconstruction(suite_->d3.telemetry, *predictor_,
                                   **baseline, &rng);
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_GT(cmp->num_runs, 100);
  EXPECT_GT(cmp->regression_ks, 0.0);
  EXPECT_GT(cmp->proposed_ks, 0.0);
  // The paper's headline: the proposed method reconstructs the runtime
  // distribution better (KS reduced by ~9%).
  EXPECT_LT(cmp->proposed_ks, cmp->regression_ks);
  EXPECT_LT(cmp->proposed_qq_mae, cmp->regression_qq_mae);
  EXPECT_EQ(cmp->regression_qq.size(), 99u);
  EXPECT_GT(cmp->KsReductionPercent(), 0.0);
}

TEST_F(PipelineTest, ExplainerSatisfiesLocalAccuracy) {
  Explainer explainer(predictor_);
  auto explanations = explainer.ExplainSlice(suite_->d3.telemetry, 10);
  ASSERT_TRUE(explanations.ok()) << explanations.status().ToString();
  ASSERT_EQ(explanations->size(), 10u);
  // Each explanation reconstructs the model's raw score per class.
  const size_t i = 0;
  const RunExplanation& e = (*explanations)[i];
  EXPECT_EQ(e.phi.size(),
            static_cast<size_t>(predictor_->model().num_classes()));
  EXPECT_EQ(e.phi[0].size(),
            predictor_->featurizer().FeatureNames().size());
}

TEST_F(PipelineTest, ExplainerSummaryRanksFeatures) {
  Explainer explainer(predictor_);
  auto explanations = explainer.ExplainSlice(suite_->d3.telemetry, 30);
  ASSERT_TRUE(explanations.ok());
  auto summary = explainer.SummarizeForShape(*explanations, 2);
  ASSERT_TRUE(summary.ok());
  ASSERT_FALSE(summary->empty());
  for (size_t i = 1; i < summary->size(); ++i) {
    EXPECT_GE((*summary)[i - 1].mean_abs_shap, (*summary)[i].mean_abs_shap);
  }
  EXPECT_TRUE(explainer.SummarizeForShape(*explanations, 99)
                  .status()
                  .IsOutOfRange());
  EXPECT_FALSE(explainer.SummarizeForShape({}, 0).ok());
}

TEST_F(PipelineTest, WhatIfScenariosRunAndConserveRuns) {
  WhatIfEngine engine(predictor_);
  for (const auto& [name, transform] :
       std::vector<std::pair<std::string, FeatureTransform>>{
           {"spare", WhatIfEngine::DisableSpareTokens()},
           {"sku", WhatIfEngine::ShiftSkuVertices("Gen3.5", "Gen5.2")},
           {"load", WhatIfEngine::EqualizeLoad()}}) {
    auto result = engine.Run(suite_->d3.telemetry, name, transform);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_EQ(result->num_runs,
              static_cast<int>(suite_->d3.telemetry.NumRuns()));
    // Transition counts conserve the total.
    int total = 0;
    for (const auto& row : result->transition_counts) {
      for (int c : row) total += c;
    }
    EXPECT_EQ(total, result->num_runs);
    // Migrations are sorted by count.
    for (size_t i = 1; i < result->top_migrations.size(); ++i) {
      EXPECT_GE(result->top_migrations[i - 1].count,
                result->top_migrations[i].count);
    }
  }
}

TEST_F(PipelineTest, IdentityTransformChangesNothing) {
  WhatIfEngine engine(predictor_);
  auto result = engine.Run(suite_->d3.telemetry, "identity",
                           [](const Featurizer&, std::vector<double>*) {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_changed, 0);
  EXPECT_TRUE(result->top_migrations.empty());
  EXPECT_EQ(result->ChangedFraction(), 0.0);
}

// A model that answers `shape` for every run: zero boosting rounds, with
// the base score alone deciding the softmax.
std::shared_ptr<const ml::GbdtClassifier> ConstantModel(
    const VariationPredictor& predictor, int shape) {
  const int k = predictor.shapes().num_clusters();
  std::vector<double> base_scores(static_cast<size_t>(k), 0.0);
  base_scores[static_cast<size_t>(shape)] = 1.0;
  auto model = ml::GbdtClassifier::Restore(
      predictor.model().config(), k, std::move(base_scores),
      std::vector<std::vector<ml::Tree>>(static_cast<size_t>(k)),
      std::vector<double>(predictor.kept_features().size(), 0.0));
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::make_shared<const ml::GbdtClassifier>(std::move(*model));
}

// A SwapModel that lands mid-scenario must not pass for a feature-driven
// migration: both sides of every run score against the epoch Run pinned.
// The identity transform swaps the model once, a deterministic stand-in
// for a concurrent swap between the "before" and "after" predictions.
TEST_F(PipelineTest, WhatIfScoresBothSidesAgainstOneModelEpoch) {
  const std::shared_ptr<const ml::GbdtClassifier> trained =
      predictor_->ModelSnapshot();
  ASSERT_TRUE(predictor_->SwapModel(ConstantModel(*predictor_, 0)).ok());
  const std::shared_ptr<const ml::GbdtClassifier> other =
      ConstantModel(*predictor_, 1);

  sim::TelemetryStore slice;
  ASSERT_TRUE(slice.Ingest(suite_->d3.telemetry.run(0)).ok());
  std::atomic<bool> swapped{false};
  WhatIfEngine engine(predictor_);
  auto result = engine.Run(
      slice, "swap-mid-run",
      [&](const Featurizer&, std::vector<double>*) {
        if (!swapped.exchange(true)) {
          EXPECT_TRUE(predictor_->SwapModel(other).ok());
        }
      });
  ASSERT_TRUE(predictor_->SwapModel(trained).ok());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(swapped.load());
  EXPECT_EQ(result->num_runs, 1);
  EXPECT_EQ(result->num_changed, 0);
  EXPECT_EQ(result->transition_counts[0][0], 1);
}

TEST_F(PipelineTest, ReportsRenderNonEmpty) {
  EXPECT_FALSE(RenderDatasetSummary(*suite_).empty());
  EXPECT_FALSE(RenderShapeStats(predictor_->shapes()).empty());
  auto eval = predictor_->Evaluate(suite_->d3.telemetry);
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(RenderSupportBuckets(*eval).empty());
  WhatIfEngine engine(predictor_);
  auto scenario = engine.Run(suite_->d3.telemetry, "spare",
                             WhatIfEngine::DisableSpareTokens());
  ASSERT_TRUE(scenario.ok());
  const std::string rendered =
      RenderScenario(*scenario, predictor_->shapes());
  EXPECT_NE(rendered.find("Scenario: spare"), std::string::npos);
}

TEST_F(PipelineTest, FeaturizerBuildsConsistentVectors) {
  const Featurizer& featurizer = predictor_->featurizer();
  const auto& names = featurizer.FeatureNames();
  EXPECT_GT(names.size(), 30u);
  EXPECT_GE(featurizer.IndexOf("hist_spare_tokens_mean"), 0);
  EXPECT_GE(featurizer.IndexOf("sku_util_Gen5.2"), 0);
  EXPECT_EQ(featurizer.IndexOf("not_a_feature"), -1);
  const sim::JobRun& run = suite_->d3.telemetry.run(0);
  auto x = featurizer.FeaturesFor(run);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->size(), names.size());
  for (double v : *x) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(PipelineTest, PredictorRejectsWrongSizeFeatureVector) {
  PredictScratch scratch;
  EXPECT_TRUE(predictor_
                  ->PredictFromFeatures(*predictor_->ModelSnapshot(),
                                        {1.0, 2.0}, &scratch)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PipelineTest, SampleNormalizedDrawsFromShapeSupport) {
  Rng rng(3);
  const auto xs = predictor_->SampleNormalized(0, 500, &rng);
  ASSERT_EQ(xs.size(), 500u);
  const BinGrid& grid = predictor_->shapes().grid();
  for (double x : xs) {
    EXPECT_GE(x, grid.lo());
    EXPECT_LE(x, grid.hi());
  }
}

}  // namespace
}  // namespace core
}  // namespace rvar
