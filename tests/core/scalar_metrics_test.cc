#include "core/scalar_metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "unique_temp_dir.h"

namespace rvar {
namespace core {
namespace {

sim::JobRun RunOf(int group, double runtime) {
  sim::JobRun run;
  run.group_id = group;
  run.runtime_seconds = runtime;
  return run;
}

TEST(StalagmiteTest, ClassifiesRegimes) {
  sim::TelemetryStore store;
  GroupMedians medians;
  medians.Set(0, 100.0);
  // 6 diagonal, 2 mild, 2 stalagmite runs.
  for (double r : {90.0, 95.0, 100.0, 105.0, 110.0, 140.0}) {
    store.Add(RunOf(0, r));
  }
  store.Add(RunOf(0, 200.0));
  store.Add(RunOf(0, 250.0));
  store.Add(RunOf(0, 400.0));
  store.Add(RunOf(0, 1500.0));
  // A run of an unknown group is skipped.
  store.Add(RunOf(9, 100.0));

  auto analysis = AnalyzeStalagmite(store, medians, 1.5, 3.0);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->total_runs, 10);
  EXPECT_EQ(analysis->diagonal_runs, 6);
  EXPECT_EQ(analysis->mild_runs, 2);
  EXPECT_EQ(analysis->stalagmite_runs, 2);
  EXPECT_DOUBLE_EQ(analysis->DiagonalShare(), 0.6);
  EXPECT_DOUBLE_EQ(analysis->StalagmiteShare(), 0.2);
}

TEST(StalagmiteTest, CorrelationHighAcrossScales) {
  sim::TelemetryStore store;
  GroupMedians medians;
  Rng rng(3);
  for (int g = 0; g < 40; ++g) {
    const double median = rng.LogNormal(4.0, 1.5);
    medians.Set(g, median);
    for (int i = 0; i < 10; ++i) {
      store.Add(RunOf(g, median * std::max(0.2, rng.Normal(1.0, 0.1))));
    }
  }
  auto analysis = AnalyzeStalagmite(store, medians);
  ASSERT_TRUE(analysis.ok());
  // Cross-group scale dominates: the log-log correlation is high even
  // though it says nothing about the within-group tail.
  EXPECT_GT(analysis->log_correlation, 0.95);
}

TEST(StalagmiteTest, RejectsBadInput) {
  sim::TelemetryStore store;
  GroupMedians medians;
  EXPECT_TRUE(AnalyzeStalagmite(store, medians).status()
                  .IsFailedPrecondition());
  store.Add(RunOf(0, 1.0));
  medians.Set(0, 1.0);
  EXPECT_TRUE(AnalyzeStalagmite(store, medians, 3.0, 1.5)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AnalyzeStalagmite(store, medians, 0.5, 3.0)
                  .status()
                  .IsInvalidArgument());
}

TEST(CovStabilityTest, StableGroupsCorrelatedWindows) {
  sim::TelemetryStore historic, recent;
  Rng rng(5);
  // Groups with persistent, distinct COV levels.
  for (int g = 0; g < 30; ++g) {
    const double sigma = 0.05 + 0.02 * g;  // increasing variability
    for (int i = 0; i < 40; ++i) {
      historic.Add(RunOf(g, std::max(1.0, rng.Normal(100.0, 100.0 * sigma))));
      recent.Add(RunOf(g, std::max(1.0, rng.Normal(100.0, 100.0 * sigma))));
    }
  }
  auto stability = AnalyzeCovStability(historic, recent, 10);
  ASSERT_TRUE(stability.ok());
  EXPECT_EQ(stability->num_groups, 30);
  EXPECT_GT(stability->correlation, 0.8);
  EXPECT_FALSE(stability->buckets.empty());
  for (const auto& b : stability->buckets) {
    EXPECT_LE(b.new_cov_p10, b.new_cov_median);
    EXPECT_LE(b.new_cov_median, b.new_cov_p90);
  }
}

TEST(CovStabilityTest, RegimeSwitchingGroupsDecorrelate) {
  sim::TelemetryStore historic, recent;
  Rng rng(6);
  // Each group is quiet in one window and turbulent in the other (rare
  // events present only in one window) — historic COV misleads.
  for (int g = 0; g < 30; ++g) {
    const bool quiet_first = g % 2 == 0;
    for (int i = 0; i < 40; ++i) {
      const double quiet = std::max(1.0, rng.Normal(100.0, 3.0));
      const double loud =
          rng.Bernoulli(0.15) ? rng.Uniform(300.0, 1500.0) : quiet;
      historic.Add(RunOf(g, quiet_first ? quiet : loud));
      recent.Add(RunOf(g, quiet_first ? loud : quiet));
    }
  }
  auto stability = AnalyzeCovStability(historic, recent, 10);
  ASSERT_TRUE(stability.ok());
  EXPECT_LT(stability->correlation, 0.0);
}

TEST(CovStabilityTest, RequiresTwoQualifyingGroups) {
  sim::TelemetryStore historic, recent;
  for (int i = 0; i < 5; ++i) {
    historic.Add(RunOf(0, 10.0 + i));
    recent.Add(RunOf(0, 10.0 + i));
  }
  EXPECT_TRUE(AnalyzeCovStability(historic, recent, 3)
                  .status()
                  .IsFailedPrecondition());
}

TEST(TelemetryCsvTest, ExportsHeaderAndRows) {
  sim::TelemetryStore store;
  sim::JobRun run;
  run.group_id = 3;
  run.instance_id = 17;
  run.runtime_seconds = 12.5;
  run.sku_vertex_fraction = {0.25, 0.75};
  run.sku_cpu_util = {0.5, 0.6};
  store.Add(run);
  const std::string csv = store.ToCsv({"GenA", "GenB"});
  EXPECT_NE(csv.find("group_id,instance_id"), std::string::npos);
  EXPECT_NE(csv.find("sku_frac_GenA"), std::string::npos);
  EXPECT_NE(csv.find("sku_util_GenB"), std::string::npos);
  EXPECT_NE(csv.find("3,17,"), std::string::npos);
  EXPECT_NE(csv.find("12.500"), std::string::npos);
  // Exactly header + 1 data row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
  // File round trip.
  const UniqueTempDir dir;
  EXPECT_TRUE(
      store.ExportCsv(dir.File("telemetry.csv"), {"GenA", "GenB"}).ok());
}

}  // namespace
}  // namespace core
}  // namespace rvar
