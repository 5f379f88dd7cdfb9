// TelemetryStore CSV round trip: ToCsv() output re-imports losslessly, and
// hostile documents (wrong header, ragged rows, non-numeric cells) are
// rejected with a clear Status instead of a misparse. Rows that parse but
// violate telemetry invariants go through the normal Ingest quarantine.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/telemetry.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace sim {
namespace {

const std::vector<std::string> kSkus = {"old_gen", "new_gen"};

TelemetryStore MakeStore(int num_runs, uint64_t seed) {
  TelemetryStore store;
  Rng rng(seed);
  for (int i = 0; i < num_runs; ++i) {
    JobRun run;
    run.group_id = i % 7;
    run.instance_id = i;
    run.submit_time = 100.0 * i;
    run.runtime_seconds = rng.Uniform(10.0, 1000.0);
    run.rare_event = (i % 11 == 0);
    run.allocated_tokens = 40 + i % 5;
    run.max_tokens_used = 50 + i;
    run.avg_tokens_used = 30.0 + 0.5 * i;
    run.avg_spare_tokens = rng.Uniform(0.0, 5.0);
    run.input_gb = rng.Uniform(1.0, 300.0);
    run.temp_data_gb = rng.Uniform(0.0, 50.0);
    run.total_vertices = 100 + 3 * i;
    run.num_stages = 4 + i % 6;
    run.cpu_util_mean = rng.Uniform(0.2, 0.9);
    run.cpu_util_std = rng.Uniform(0.0, 0.2);
    run.cluster_baseline_util = rng.Uniform(0.2, 0.9);
    run.spare_availability = rng.Uniform(0.0, 1.0);
    run.machine_faults = i % 3;
    run.vertex_retries = i % 4;
    run.spare_revoked = (i % 13 == 0);
    run.sku_vertex_fraction = {0.25, 0.75};
    run.sku_cpu_util = {rng.Uniform(0.1, 0.9), rng.Uniform(0.1, 0.9)};
    EXPECT_TRUE(store.Ingest(run).ok()) << "run " << i;
  }
  return store;
}

TEST(TelemetryCsvTest, RoundTripsLosslessly) {
  TelemetryStore store = MakeStore(40, 5);
  auto restored = TelemetryStore::FromCsv(store.ToCsv(kSkus), kSkus);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->NumRuns(), store.NumRuns());
  for (size_t i = 0; i < store.NumRuns(); ++i) {
    const JobRun& a = store.run(i);
    const JobRun& b = restored->run(i);
    EXPECT_EQ(a.group_id, b.group_id);
    EXPECT_EQ(a.instance_id, b.instance_id);
    EXPECT_EQ(a.rare_event, b.rare_event);
    EXPECT_EQ(a.machine_faults, b.machine_faults);
    EXPECT_EQ(a.vertex_retries, b.vertex_retries);
    EXPECT_EQ(a.spare_revoked, b.spare_revoked);
    EXPECT_EQ(a.sku_vertex_fraction.size(), b.sku_vertex_fraction.size());
    // The export is fixed-precision (3-4 decimals per column), so the
    // round trip is exact only to the printed precision.
    EXPECT_NEAR(a.runtime_seconds, b.runtime_seconds, 5e-4);
    EXPECT_NEAR(a.cpu_util_mean, b.cpu_util_mean, 5e-5);
    EXPECT_NEAR(a.input_gb, b.input_gb, 5e-4);
    for (size_t s = 0; s < a.sku_cpu_util.size(); ++s) {
      EXPECT_NEAR(a.sku_cpu_util[s], b.sku_cpu_util[s], 5e-5);
    }
  }
  EXPECT_EQ(restored->GroupIds(), store.GroupIds());
  // And a second hop is byte-stable.
  EXPECT_EQ(restored->ToCsv(kSkus), store.ToCsv(kSkus));
}

TEST(TelemetryCsvTest, FileExportImportRoundTrips) {
  const UniqueTempDir dir;
  const std::string path = dir.File("telemetry.csv");
  TelemetryStore store = MakeStore(10, 6);
  ASSERT_TRUE(store.ExportCsv(path, kSkus).ok());
  auto restored = TelemetryStore::ImportCsv(path, kSkus);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->NumRuns(), store.NumRuns());
  std::filesystem::remove(path);
  EXPECT_FALSE(TelemetryStore::ImportCsv(path, kSkus).ok());
}

TEST(TelemetryCsvTest, RejectsWrongHeader) {
  TelemetryStore store = MakeStore(3, 7);
  std::string csv = store.ToCsv(kSkus);
  // Rename one header column.
  const size_t pos = csv.find("runtime_s");
  ASSERT_NE(pos, std::string::npos);
  csv.replace(pos, 9, "runtime_x");
  auto restored = TelemetryStore::FromCsv(csv, kSkus);
  EXPECT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsInvalidArgument())
      << restored.status().ToString();

  // Mismatched SKU naming is also a header mismatch.
  EXPECT_FALSE(
      TelemetryStore::FromCsv(store.ToCsv(kSkus), {"only_one"}).ok());
}

TEST(TelemetryCsvTest, RejectsRaggedRow) {
  TelemetryStore store = MakeStore(3, 8);
  std::string csv = store.ToCsv(kSkus);
  // Chop the last cell (and its comma) off the final data row.
  ASSERT_EQ(csv.back(), '\n');
  const size_t last_comma = csv.find_last_of(',');
  csv = csv.substr(0, last_comma) + "\n";
  auto restored = TelemetryStore::FromCsv(csv, kSkus);
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("ragged"), std::string::npos)
      << restored.status().ToString();
}

TEST(TelemetryCsvTest, RejectsNonNumericCell) {
  TelemetryStore store = MakeStore(3, 9);
  std::string csv = store.ToCsv(kSkus);
  // Replace the first data row's runtime with text of the same length.
  const size_t header_end = csv.find('\n');
  size_t cell = header_end;
  for (int i = 0; i < 3; ++i) cell = csv.find(',', cell + 1);
  const size_t cell_end = csv.find(',', cell + 1);
  csv.replace(cell + 1, cell_end - cell - 1, "fast");
  auto restored = TelemetryStore::FromCsv(csv, kSkus);
  EXPECT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsInvalidArgument())
      << restored.status().ToString();
  EXPECT_NE(restored.status().message().find("fast"), std::string::npos);
}

TEST(TelemetryCsvTest, InvalidValuesQuarantineInsteadOfFailing) {
  TelemetryStore store = MakeStore(5, 10);
  std::string csv = store.ToCsv(kSkus);
  // Negate the first data row's runtime: parses fine, violates the
  // telemetry invariant, so it must land in quarantine like any other
  // hostile ingest.
  const size_t header_end = csv.find('\n');
  size_t cell = header_end;
  for (int i = 0; i < 3; ++i) cell = csv.find(',', cell + 1);
  csv.insert(cell + 1, 1, '-');
  auto restored = TelemetryStore::FromCsv(csv, kSkus);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->NumRuns(), store.NumRuns() - 1);
  EXPECT_EQ(restored->NumQuarantined(), 1u);
  EXPECT_EQ(restored->QuarantineCount(QuarantineReason::kNegativeRuntime),
            1);
}

}  // namespace
}  // namespace sim
}  // namespace rvar
