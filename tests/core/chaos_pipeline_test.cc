// End-to-end chaos test: the full analysis pipeline driven by a hostile
// FaultPlan — machines failing mid-stage, spare tokens revoked, telemetry
// dropped, duplicated, corrupted, and reordered — must degrade gracefully:
// no crashes, no non-finite outputs, exact quarantine accounting, and
// bit-identical results when replayed with the same seed.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/assigner.h"
#include "core/normalization.h"
#include "core/online.h"
#include "core/shape_library.h"
#include "sim/datasets.h"

namespace rvar {
namespace core {
namespace {

sim::SuiteConfig ChaosConfig() {
  sim::SuiteConfig config;
  config.num_groups = 40;
  config.d1_days = 3.0;
  config.d2_days = 1.0;
  config.d3_days = 0.5;
  config.d1_support = 10;
  config.workload.min_period_seconds = 600.0;
  config.workload.max_period_seconds = 4.0 * 3600.0;
  config.seed = 1337;
  // >= 10% machine-fault rate, >= 5% telemetry corruption (the defect
  // kinds that reach ingest), plus drops and heavy reordering.
  config.faults.seed = 99;
  config.faults.machine_fault_rate = 0.10;
  config.faults.token_revocation_rate = 0.05;
  config.faults.drop_run_rate = 0.02;
  config.faults.duplicate_run_rate = 0.02;
  config.faults.nan_runtime_rate = 0.02;
  config.faults.negative_runtime_rate = 0.02;
  config.faults.missing_columns_rate = 0.02;
  config.faults.reorder_window = 25;
  return config;
}

class ChaosPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto suite = sim::BuildStudySuite(ChaosConfig());
    ASSERT_TRUE(suite.ok()) << suite.status().ToString();
    suite_ = new sim::StudySuite(std::move(*suite));
  }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }
  static sim::StudySuite* suite_;
};

sim::StudySuite* ChaosPipelineTest::suite_ = nullptr;

TEST_F(ChaosPipelineTest, FaultsActuallyFired) {
  const sim::FaultReport& report = suite_->faults;
  EXPECT_GT(report.machine_faults, 0);
  EXPECT_GT(report.vertex_retries, 0);
  EXPECT_GT(report.dropped_runs, 0);
  EXPECT_GT(report.corrupted_runs, 0);
  EXPECT_GT(report.reordered_runs, 0);
  EXPECT_GT(suite_->d1.telemetry.NumRuns(), 0u);
}

TEST_F(ChaosPipelineTest, QuarantineAccountingIsExact) {
  const int64_t quarantined =
      static_cast<int64_t>(suite_->d1.telemetry.NumQuarantined()) +
      static_cast<int64_t>(suite_->d2.telemetry.NumQuarantined()) +
      static_cast<int64_t>(suite_->d3.telemetry.NumQuarantined());
  // Every run that reached ingest carrying an injected defect — and no
  // other — must have been quarantined.
  EXPECT_EQ(quarantined, suite_->faults.corrupted_runs);
  EXPECT_EQ(quarantined, suite_->faults.quarantined_runs);
}

TEST_F(ChaosPipelineTest, StoredTelemetryIsClean) {
  for (const sim::DatasetSlice* slice :
       {&suite_->d1, &suite_->d2, &suite_->d3}) {
    for (const sim::JobRun& run : slice->telemetry.runs()) {
      EXPECT_TRUE(std::isfinite(run.runtime_seconds));
      EXPECT_GE(run.runtime_seconds, 0.0);
      EXPECT_FALSE(run.sku_vertex_fraction.empty());
      EXPECT_GE(run.machine_faults, 0);
      EXPECT_EQ(run.vertex_retries, run.machine_faults);
    }
  }
}

TEST_F(ChaosPipelineTest, PipelineSurvivesEndToEnd) {
  const GroupMedians medians =
      GroupMedians::FromTelemetry(suite_->d1.telemetry);

  ShapeLibraryConfig sc;
  sc.num_clusters = 4;
  sc.min_support = 10;
  sc.kmeans.num_restarts = 3;
  auto library = ShapeLibrary::Build(suite_->d1.telemetry, medians, sc);
  ASSERT_TRUE(library.ok()) << library.status().ToString();
  EXPECT_EQ(library->num_clusters(), 4);
  for (int c = 0; c < library->num_clusters(); ++c) {
    double mass = 0.0;
    for (double p : library->shape(c)) {
      EXPECT_TRUE(std::isfinite(p));
      EXPECT_GE(p, 0.0);
      mass += p;
    }
    EXPECT_NEAR(mass, 1.0, 1e-9);
    EXPECT_TRUE(std::isfinite(library->stats(c).iqr));
    EXPECT_TRUE(std::isfinite(library->stats(c).p95));
  }

  // Posterior assignment of every D3 group with usable history.
  PosteriorAssigner assigner(&*library);
  int assigned = 0;
  for (int gid : suite_->d3.telemetry.GroupIds()) {
    auto normalized = NormalizedGroupRuntimes(
        suite_->d3.telemetry, gid, medians, sc.normalization);
    if (!normalized.ok()) continue;  // no D1 history for this group
    auto cluster = assigner.Assign(*normalized);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    EXPECT_GE(*cluster, 0);
    EXPECT_LT(*cluster, library->num_clusters());
    ++assigned;
  }
  EXPECT_GT(assigned, 0);

  // Streaming tracker over the D3 runs of one assigned group.
  auto tracker = OnlineShapeTracker::Make(&*library);
  ASSERT_TRUE(tracker.ok());
  for (int gid : suite_->d3.telemetry.GroupIds()) {
    auto normalized = NormalizedGroupRuntimes(
        suite_->d3.telemetry, gid, medians, sc.normalization);
    if (!normalized.ok()) continue;
    for (double x : *normalized) tracker->Observe(x);
  }
  ASSERT_GT(tracker->count(), 0);
  double total = 0.0;
  for (int c = 0; c < library->num_clusters(); ++c) {
    const double p = tracker->ProbabilityOf(c);
    EXPECT_TRUE(std::isfinite(p));
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(ChaosPipelineTest, SameSeedReplaysIdentically) {
  auto replay = sim::BuildStudySuite(ChaosConfig());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->faults.machine_faults, suite_->faults.machine_faults);
  EXPECT_EQ(replay->faults.failed_jobs, suite_->faults.failed_jobs);
  EXPECT_EQ(replay->faults.dropped_runs, suite_->faults.dropped_runs);
  EXPECT_EQ(replay->faults.quarantined_runs,
            suite_->faults.quarantined_runs);
  ASSERT_EQ(replay->d3.telemetry.NumRuns(), suite_->d3.telemetry.NumRuns());
  for (size_t i = 0; i < replay->d3.telemetry.NumRuns(); ++i) {
    const sim::JobRun& a = replay->d3.telemetry.run(i);
    const sim::JobRun& b = suite_->d3.telemetry.run(i);
    EXPECT_EQ(a.instance_id, b.instance_id);
    EXPECT_DOUBLE_EQ(a.runtime_seconds, b.runtime_seconds);
    EXPECT_EQ(a.machine_faults, b.machine_faults);
  }
}

TEST_F(ChaosPipelineTest, TrackerClampsHostileObservations) {
  const GroupMedians medians =
      GroupMedians::FromTelemetry(suite_->d1.telemetry);
  ShapeLibraryConfig sc;
  sc.num_clusters = 3;
  sc.min_support = 10;
  sc.kmeans.num_restarts = 2;
  auto library = ShapeLibrary::Build(suite_->d1.telemetry, medians, sc);
  ASSERT_TRUE(library.ok());
  auto tracker = OnlineShapeTracker::Make(&*library);
  ASSERT_TRUE(tracker.ok());
  tracker->Observe(1.0);
  tracker->Observe(std::nan(""));
  tracker->Observe(std::numeric_limits<double>::infinity());
  tracker->Observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(tracker->num_clamped(), 3);
  for (double ll : tracker->ExportState(0).log_likelihood) {
    EXPECT_TRUE(std::isfinite(ll));
  }
}

}  // namespace
}  // namespace core
}  // namespace rvar
