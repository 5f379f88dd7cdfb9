// Copyright 2026 The rvar Authors.
//
// The offline side of the benchmark: the study pipeline
// (BuildStudySuite -> Train -> Evaluate), its stage-by-stage breakdown and
// the per-row serving kernels, each timed around one public call.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "common/check.h"
#include "common/parallel.h"
#include "core/normalization.h"
#include "core/shape_library.h"
#include "ml/feature_select.h"
#include "ml/gbdt.h"

namespace rvar {
namespace perfbench {

namespace {

/// Times `fn` `reps` times and returns the median seconds per call.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(SecondsSince(start));
  }
  return Median(samples);
}

/// Every `stride`-th D3 run, at most `limit` of them.
std::vector<const sim::JobRun*> SampleRuns(const sim::TelemetryStore& store,
                                           size_t limit) {
  const std::vector<sim::JobRun>& runs = store.runs();
  const size_t stride = std::max<size_t>(1, runs.size() / limit);
  std::vector<const sim::JobRun*> out;
  for (size_t i = 0; i < runs.size() && out.size() < limit; i += stride) {
    out.push_back(&runs[i]);
  }
  return out;
}

volatile double g_sink = 0.0;

}  // namespace

sim::SuiteConfig StudySuiteConfig(int num_groups) {
  // bench/bench_common.cc's standard suite (20/15/5 days, the same support,
  // periods and seed) with `num_groups` job groups instead of its 150.
  sim::SuiteConfig config;
  config.num_groups = num_groups;
  config.d1_days = 20.0;
  config.d2_days = 15.0;
  config.d3_days = 5.0;
  config.d1_support = 20;
  config.d2_support = 3;
  config.d3_support = 3;
  config.workload.min_period_seconds = 900.0;
  config.workload.max_period_seconds = 6.0 * 3600.0;
  config.seed = 20230407;
  return config;
}

core::PredictorConfig StandardPredictorConfig(uint64_t seed) {
  // bench_common's DefaultPredictorConfig(kRatio); the workload seed picks
  // the boosting seed (column sampling), so each seed trains its own model
  // over the same simulated study.
  core::PredictorConfig config;
  config.shape.normalization = core::Normalization::kRatio;
  config.shape.num_clusters = 8;
  config.shape.min_support = 20;
  config.shape.kmeans.num_restarts = 16;
  config.gbdt.num_rounds = 50;
  config.gbdt.feature_fraction = 0.7;
  config.gbdt.max_leaves = 31;
  config.gbdt.seed = 29 + 7919 * seed;
  return config;
}

Pipeline RunPipeline(const RunOptions& options, Report* report) {
  Pipeline p;
  Clock::time_point t0, t1, t2, t3;
  {
  Span root("study", "bench");
  t0 = Clock::now();
  {
    Span span("sim::BuildStudySuite", "sim");
    auto suite = sim::BuildStudySuite(StudySuiteConfig(options.study_groups));
    RVAR_CHECK(suite.ok()) << suite.status().ToString();
    p.suite = *std::move(suite);
  }
  t1 = Clock::now();
  {
    Span span("VariationPredictor::Train", "core");
    auto predictor = core::VariationPredictor::Train(
        p.suite, StandardPredictorConfig(options.seed));
    RVAR_CHECK(predictor.ok()) << predictor.status().ToString();
    p.predictor = *std::move(predictor);
  }
  t2 = Clock::now();
  {
    Span span("VariationPredictor::Evaluate", "core");
    auto eval = p.predictor->Evaluate(p.suite.d3.telemetry);
    RVAR_CHECK(eval.ok()) << eval.status().ToString();
    p.accuracy = eval->accuracy;
  }
  t3 = Clock::now();
  }

  const size_t runs = p.suite.d1.telemetry.NumRuns() +
                      p.suite.d2.telemetry.NumRuns() +
                      p.suite.d3.telemetry.NumRuns();
  p.study_seconds = SecondsBetween(t0, t3);
  p.train_seconds = SecondsBetween(t1, t2);
  report->Add("study_s", "s", SecondsBetween(t0, t3));
  report->Add("train_s", "s", SecondsBetween(t1, t2));
  report->Add("sim.build_suite_s", "s", SecondsBetween(t0, t1));
  report->Add("sim.runs_per_s", "runs/s",
              static_cast<double>(runs) / SecondsBetween(t0, t1));
  report->Add("core.evaluate_s", "s", SecondsBetween(t2, t3));

  // The serving oracle: PredictShapeBatch's answer for every D3 run.
  std::vector<const sim::JobRun*> d3;
  for (const sim::JobRun& run : p.suite.d3.telemetry.runs()) {
    d3.push_back(&run);
  }
  auto oracle = p.predictor->PredictShapeBatch(d3);
  RVAR_CHECK(oracle.ok()) << oracle.status().ToString();
  p.d3_oracle = *std::move(oracle);
  p.shapes_hash = Fnv1a(p.d3_oracle);
  std::printf("[study] %zu runs: sim %.3fs train %.3fs evaluate %.3fs, "
              "D3 accuracy %.6f, shapes hash %llu\n",
              runs, SecondsBetween(t0, t1), SecondsBetween(t1, t2),
              SecondsBetween(t2, t3), p.accuracy,
              static_cast<unsigned long long>(p.shapes_hash));
  return p;
}

ml::Dataset TrainingDataset(const Pipeline& pipeline) {
  const core::VariationPredictor& predictor = *pipeline.predictor;
  auto labels = predictor.LabelGroups(pipeline.suite.d2.telemetry,
                                      predictor.config().min_label_support);
  RVAR_CHECK(labels.ok()) << labels.status().ToString();
  auto dataset =
      predictor.featurizer().BuildDataset(pipeline.suite.d2.telemetry, *labels);
  RVAR_CHECK(dataset.ok()) << dataset.status().ToString();
  return ml::ProjectFeatures(*dataset, predictor.kept_features());
}

void RunStageBreakdown(const RunOptions& options, const Pipeline& pipeline,
                       Report* report) {
  const sim::StudySuite& suite = pipeline.suite;
  const core::VariationPredictor& predictor = *pipeline.predictor;
  const core::PredictorConfig& config = predictor.config();

  // --- Train's stages, each through its own public call ------------------
  const core::GroupMedians medians =
      core::GroupMedians::FromTelemetry(suite.d1.telemetry);
  const double library_s = MedianSeconds(1, [&] {
    Span span("ShapeLibrary::Build", "core");
    auto library =
        core::ShapeLibrary::Build(suite.d1.telemetry, medians, config.shape);
    RVAR_CHECK(library.ok()) << library.status().ToString();
  });
  std::unordered_map<int, int> labels;
  const double label_s = MedianSeconds(1, [&] {
    Span span("VariationPredictor::LabelGroups", "core");
    auto result =
        predictor.LabelGroups(suite.d2.telemetry, config.min_label_support);
    RVAR_CHECK(result.ok()) << result.status().ToString();
    labels = *std::move(result);
  });
  ml::Dataset dataset;
  const double featurize_s = MedianSeconds(1, [&] {
    Span span("Featurizer::BuildDataset", "core");
    auto result = predictor.featurizer().BuildDataset(suite.d2.telemetry, labels);
    RVAR_CHECK(result.ok()) << result.status().ToString();
    dataset = *std::move(result);
  });
  const ml::Dataset projected =
      ml::ProjectFeatures(dataset, predictor.kept_features());

  ml::GbdtClassifier fit_default(config.gbdt);
  const double fit_s = MedianSeconds(1, [&] {
    Span span("GbdtClassifier::Fit", "ml");
    RVAR_CHECK(fit_default.Fit(projected).ok());
  });
  SetParallelThreads(1);
  ml::GbdtClassifier fit_one(config.gbdt);
  const double fit_1t_s = MedianSeconds(1, [&] {
    Span span("GbdtClassifier::Fit[1 thread]", "ml");
    RVAR_CHECK(fit_one.Fit(projected).ok());
  });
  SetParallelThreads(options.serve.pool_threads);

  // Determinism: the refit equals the served model at both thread counts.
  const auto served = predictor.ModelSnapshot();
  bool same = true;
  std::vector<double> a, b, c;
  for (size_t i = 0; i < projected.NumRows() && i < 2048; ++i) {
    served->PredictRawInto(projected.x[i], &a);
    fit_default.PredictRawInto(projected.x[i], &b);
    fit_one.PredictRawInto(projected.x[i], &c);
    same = same && a == b && a == c;
  }
  report->Check("study.refit_bit_identical", same,
                "GBDT refit at 1 and default threads equals the trained model");

  const double train_s = pipeline.train_seconds;
  report->Add("core.shape_library_build_s", "s", library_s);
  report->Add("core.label_groups_s", "s", label_s);
  report->Add("core.featurize_dataset_s", "s", featurize_s);
  report->Add("ml.gbdt_fit_s", "s", fit_s);
  report->Add("ml.gbdt_fit_1t_s", "s", fit_1t_s);
  report->Add("common.parallel_speedup", "x", fit_1t_s / fit_s);
  report->Add("core.train_unattributed_s", "s",
              train_s - library_s - label_s - featurize_s - fit_s);

  // --- Per-row serving kernels --------------------------------------------
  const std::vector<const sim::JobRun*> rows =
      SampleRuns(suite.d3.telemetry, 4096);
  const double n = static_cast<double>(rows.size());
  const double featurize_row_s = MedianSeconds(5, [&] {
    Span span("Featurizer::FeaturesFor", "core");
    for (const sim::JobRun* run : rows) {
      auto x = predictor.featurizer().FeaturesFor(*run);
      g_sink = g_sink + (*x)[0];
    }
  });
  const size_t max_batch = 64;
  std::vector<int> shapes;
  std::vector<Status> status;
  const double batch_row_s = MedianSeconds(5, [&] {
    Span span("VariationPredictor::PredictShapeBatchInto", "core");
    for (size_t i = 0; i < rows.size(); i += max_batch) {
      const std::vector<const sim::JobRun*> batch(
          rows.begin() + i, rows.begin() + std::min(rows.size(), i + max_batch));
      RVAR_CHECK(
          predictor.PredictShapeBatchInto(*served, batch, &shapes, &status).ok());
    }
  });
  std::vector<std::vector<double>> features;
  for (const sim::JobRun* run : rows) {
    auto x = predictor.featurizer().FeaturesFor(*run);
    std::vector<double> kept;
    for (size_t f : predictor.kept_features()) kept.push_back((*x)[f]);
    features.push_back(std::move(kept));
  }
  std::vector<double> proba;
  const double forest_row_s = MedianSeconds(5, [&] {
    Span span("GbdtClassifier::PredictProbaInto", "ml");
    for (const std::vector<double>& x : features) {
      served->PredictProbaInto(x, &proba);
      g_sink = g_sink + proba[0];
    }
  });
  const double forest_block_s = MedianSeconds(5, [&] {
    Span span("GbdtClassifier::PredictProbaBatchInto", "ml");
    served->PredictProbaBatchInto(features, &proba);
    g_sink = g_sink + proba[0];
  });
  // The pool's fixed cost: one region of four trivial chunks.
  constexpr int kRegions = 2000;
  const double region_s = MedianSeconds(5, [&] {
    Span span("ParallelFor", "common");
    for (int r = 0; r < kRegions; ++r) {
      ParallelFor(4, 1, [](size_t begin, size_t end) {
        g_sink = g_sink + static_cast<double>(end - begin);
      });
    }
  });
  report->Add("core.featurize_row_us", "us", 1e6 * featurize_row_s / n);
  report->Add("core.predict_batch_row_us", "us", 1e6 * batch_row_s / n);
  report->Add("ml.forest_row_us", "us", 1e6 * forest_row_s / n);
  report->Add("ml.forest_block_row_us", "us", 1e6 * forest_block_s / n);
  report->Add("common.pool_dispatch_us", "us", 1e6 * region_s / kRegions);
  std::printf("[stages] library %.3fs label %.3fs featurize %.3fs fit %.3fs "
              "fit(1 thread) %.3fs\n",
              library_s, label_s, featurize_s, fit_s, fit_1t_s);
}

}  // namespace perfbench
}  // namespace rvar
