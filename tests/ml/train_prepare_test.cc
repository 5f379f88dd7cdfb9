// Training prep on the pool (DESIGN.md §8): the feature binner's fit,
// BinColumns and the correlation matrix behind feature selection fan out
// over chunks of features, row blocks and column pairs. Every output cell
// is written by exactly one chunk with the serial arithmetic, so:
//   - edges, bin bytes and correlation bits are identical at 1/2/3/8
//     threads;
//   - every correlation entry equals fabs(PearsonCorrelation) of its two
//     columns, bit for bit, including constant columns and n < 2;
//   - the selection on the benchmark-shaped D2 set is the one recorded
//     before the regions were parallel.
// The same file pins the predictor's train-stage spans under
// `predictor/train`. Lives in concurrency_test so TSan runs the regions.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "ml/dataset.h"
#include "ml/feature_select.h"
#include "ml/gbdt.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/datasets.h"

namespace rvar {
namespace ml {
namespace {

class TrainPrepareTest : public ::testing::Test {
 protected:
  ~TrainPrepareTest() override { SetParallelThreads(0); }
};

// 16,384 rows x 16 features = 262,144 cells: every region splits into at
// least 4 chunks (the fit and the row blocks into 16 of 16,384 cells,
// the column centring into 4 and the 120 column pairs into 39 of 65,536
// products). The columns cover each edge rule and each correlation
// branch: continuous, low-cardinality, binary, constant, duplicated and
// strongly (anti-)correlated features.
constexpr size_t kRows = 16384;

Dataset PrepDataset(size_t rows) {
  Rng rng(4242);
  Dataset d;
  for (size_t i = 0; i < rows; ++i) {
    const double base = rng.Normal(0.0, 1.0);
    const double u = rng.Uniform();
    std::vector<double> x = {
        base,
        2.0 * base + rng.Normal(0.0, 0.01),
        3.5,
        static_cast<double>(rng.UniformInt(0, 9)),
        u,
        -u + rng.Normal(0.0, 0.001),
        rng.LogNormal(0.0, 1.5),
        rng.Bernoulli(0.3) ? 1.0 : 0.0,
        std::round(rng.Normal(5.0, 2.0) * 100.0) / 100.0,
    };
    while (x.size() < 16) x.push_back(rng.Normal(0.0, 1.0 + x.size()));
    d.x.push_back(std::move(x));
    d.y.push_back(static_cast<int>(i % 3));
  }
  return d;
}

std::vector<std::vector<uint64_t>> MatrixBits(
    const std::vector<std::vector<double>>& m) {
  std::vector<std::vector<uint64_t>> bits;
  for (const auto& row : m) {
    std::vector<uint64_t> out;
    for (double v : row) out.push_back(std::bit_cast<uint64_t>(v));
    bits.push_back(std::move(out));
  }
  return bits;
}

struct PrepArtifacts {
  std::vector<std::vector<uint64_t>> edges;
  std::vector<std::vector<uint8_t>> bins;
  std::vector<std::vector<uint64_t>> corr;
};

PrepArtifacts RunPrep(const Dataset& d, int max_bins) {
  PrepArtifacts out;
  auto binner = FeatureBinner::Fit(d, max_bins);
  EXPECT_TRUE(binner.ok()) << binner.status().ToString();
  if (!binner.ok()) return out;
  for (size_t f = 0; f < binner->NumFeatures(); ++f) {
    std::vector<uint64_t> edges;
    for (int b = 0; b + 1 < binner->NumBins(f); ++b) {
      edges.push_back(std::bit_cast<uint64_t>(binner->UpperEdge(f, b)));
    }
    out.edges.push_back(std::move(edges));
  }
  out.bins = binner->BinColumns(d);
  out.corr = MatrixBits(CorrelationMatrix(d));
  return out;
}

TEST_F(TrainPrepareTest, IdenticalAtAnyThreadCount) {
  const Dataset d = PrepDataset(kRows);
  for (int max_bins : {32, 255}) {
    SetParallelThreads(1);
    const PrepArtifacts serial = RunPrep(d, max_bins);
    ASSERT_EQ(serial.edges.size(), 16u);
    EXPECT_EQ(serial.edges[2].size(), 0u) << "constant column has one bin";
    EXPECT_EQ(serial.edges[3].size(), 9u) << "one bin per distinct value";
    EXPECT_GT(serial.edges[0].size(), 9u);
    for (int threads : {2, 3, 8}) {
      SetParallelThreads(threads);
      const PrepArtifacts parallel = RunPrep(d, max_bins);
      EXPECT_EQ(parallel.edges, serial.edges)
          << threads << " threads, max_bins " << max_bins;
      EXPECT_EQ(parallel.bins, serial.bins)
          << threads << " threads, max_bins " << max_bins;
      EXPECT_EQ(parallel.corr, serial.corr) << threads << " threads";
    }
  }
}

// BinColumns against the per-value Bin(f, v), on a row count that is not
// a multiple of the 128-row block, so the last chunk ends mid-block.
TEST_F(TrainPrepareTest, BinColumnsMatchesBinPerValue) {
  const Dataset d = PrepDataset(kRows - 37);
  SetParallelThreads(4);
  auto binner = FeatureBinner::Fit(d, 255);
  ASSERT_TRUE(binner.ok());
  const auto cols = binner->BinColumns(d);
  ASSERT_EQ(cols.size(), d.NumFeatures());
  for (size_t f = 0; f < d.NumFeatures(); ++f) {
    ASSERT_EQ(cols[f].size(), d.NumRows());
    for (size_t i = 0; i < d.NumRows(); ++i) {
      ASSERT_EQ(cols[f][i], binner->Bin(f, d.x[i][f]))
          << "feature " << f << " row " << i;
    }
  }
}

void ExpectMatrixIsPearsonOracle(const Dataset& d) {
  const auto corr = CorrelationMatrix(d);
  const size_t nf = d.NumFeatures();
  ASSERT_EQ(corr.size(), nf);
  for (size_t i = 0; i < nf; ++i) {
    ASSERT_EQ(corr[i].size(), nf);
    EXPECT_EQ(corr[i][i], 1.0);
    for (size_t j = 0; j < nf; ++j) {
      if (i == j) continue;
      const double oracle =
          std::fabs(PearsonCorrelation(d.Column(i), d.Column(j)));
      EXPECT_EQ(std::bit_cast<uint64_t>(corr[i][j]),
                std::bit_cast<uint64_t>(oracle))
          << "entry (" << i << ", " << j << "): " << corr[i][j] << " vs "
          << oracle;
    }
  }
}

TEST_F(TrainPrepareTest, CorrelationMatrixIsPearsonBitForBit) {
  for (int threads : {1, 3}) {
    SetParallelThreads(threads);
    ExpectMatrixIsPearsonOracle(PrepDataset(kRows));
    // Small sets run as one inline chunk and take the same arithmetic.
    ExpectMatrixIsPearsonOracle(PrepDataset(80));
    ExpectMatrixIsPearsonOracle(PrepDataset(2));
  }
}

TEST_F(TrainPrepareTest, CorrelationMatrixOfOneRowIsIdentity) {
  const Dataset d = PrepDataset(1);
  const auto corr = CorrelationMatrix(d);
  ASSERT_EQ(corr.size(), 16u);
  for (size_t i = 0; i < corr.size(); ++i) {
    for (size_t j = 0; j < corr.size(); ++j) {
      EXPECT_EQ(corr[i][j], i == j ? 1.0 : 0.0);
    }
  }
  ExpectMatrixIsPearsonOracle(d);
}

// bench_common's standard suite with 30 groups: the D2 training set the
// benchmark's study pipeline fits (14,878 rows x 47 features).
sim::SuiteConfig BenchmarkSuiteConfig() {
  sim::SuiteConfig config;
  config.num_groups = 30;
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

// The benchmark's predictor at workload seed 1, except that the final
// fit has the probe's 15 rounds: the selection only sees the probe.
core::PredictorConfig BenchmarkPredictorConfig() {
  core::PredictorConfig config;
  config.shape.normalization = core::Normalization::kRatio;
  config.shape.num_clusters = 8;
  config.shape.min_support = 20;
  config.shape.kmeans.num_restarts = 16;
  config.gbdt.num_rounds = 15;
  config.gbdt.feature_fraction = 0.7;
  config.gbdt.max_leaves = 31;
  config.gbdt.seed = 29 + 7919;
  return config;
}

TEST_F(TrainPrepareTest, BenchmarkD2SelectionMatchesRecordedValues) {
  auto suite = sim::BuildStudySuite(BenchmarkSuiteConfig());
  ASSERT_TRUE(suite.ok()) << suite.status().ToString();
  const core::PredictorConfig config = BenchmarkPredictorConfig();
  auto predictor = core::VariationPredictor::Train(*suite, config);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();

  // Train's own probe and selection, replayed step by step.
  auto labels = (*predictor)->LabelGroups(suite->d2.telemetry,
                                          config.min_label_support);
  ASSERT_TRUE(labels.ok());
  auto train =
      (*predictor)->featurizer().BuildDataset(suite->d2.telemetry, *labels);
  ASSERT_TRUE(train.ok());
  EXPECT_EQ(train->NumRows(), 14878u);
  EXPECT_EQ(train->NumFeatures(), 47u);
  GbdtClassifier probe(config.gbdt);
  ASSERT_TRUE(probe.Fit(*train).ok());
  auto selection = SelectUncorrelatedFeatures(
      *train, probe.feature_importance(), config.max_abs_correlation);
  ASSERT_TRUE(selection.ok());

  // Recorded with the serial binner and the pairwise Pearson matrix.
  const std::vector<size_t> kRecordedKept = {
      18, 32, 21, 31, 25, 30, 3,  5,  7,  12, 26, 2,  0,  8,  22, 15, 27,
      19, 13, 29, 14, 1,  28, 6,  9,  10, 11, 16, 34, 41, 42, 44, 45};
  const std::vector<size_t> kRecordedDropped = {23, 20, 4,  17, 24, 33, 35,
                                                36, 37, 38, 39, 40, 43, 46};
  EXPECT_EQ(selection->kept, kRecordedKept);
  EXPECT_EQ(selection->dropped, kRecordedDropped);
  std::vector<size_t> sorted = selection->kept;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ((*predictor)->kept_features(), sorted);
}

// Every train stage records a span directly under `predictor/train`.
TEST_F(TrainPrepareTest, TrainStageSpansNestUnderTrain) {
  sim::SuiteConfig suite_config;
  suite_config.num_groups = 24;
  suite_config.d1_days = 4.0;
  suite_config.d2_days = 2.0;
  suite_config.d3_days = 1.0;
  suite_config.d1_support = 15;
  suite_config.workload.min_period_seconds = 600.0;
  suite_config.workload.max_period_seconds = 4.0 * 3600.0;
  suite_config.seed = 2024;
  auto suite = sim::BuildStudySuite(suite_config);
  ASSERT_TRUE(suite.ok()) << suite.status().ToString();
  core::PredictorConfig config;
  config.shape.num_clusters = 4;
  config.shape.min_support = 15;
  config.shape.kmeans.num_restarts = 2;
  config.gbdt.num_rounds = 10;

  obs::SetSampling(true);
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Clear();
  ASSERT_TRUE(core::VariationPredictor::Train(*suite, config).ok());
  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();

  const obs::SpanRecord* train = nullptr;
  for (const obs::SpanRecord& s : spans) {
    if (std::string(s.name) == "predictor/train") train = &s;
  }
  ASSERT_NE(train, nullptr);
  for (const char* stage :
       {"predictor/build_shape_library", "predictor/label_groups",
        "predictor/set_history", "predictor/featurize",
        "predictor/probe_fit", "predictor/select_features",
        "predictor/fit_gbdt"}) {
    int found = 0;
    for (const obs::SpanRecord& s : spans) {
      if (std::string(s.name) != stage) continue;
      ++found;
      EXPECT_EQ(s.parent_id, train->span_id) << stage;
      EXPECT_EQ(s.depth, train->depth + 1) << stage;
    }
    EXPECT_EQ(found, 1) << stage;
  }
}

}  // namespace
}  // namespace ml
}  // namespace rvar
