// Golden fingerprint of the simulator's output. Every JobRun field of every
// run (kept and quarantined) in D1/D2/D3, plus the fault report, is hashed
// bit for bit: FNV-1a over the raw bytes of each integer and double. The
// simulator's output is a pure function of its SuiteConfig, so any change
// to src/sim/ that reorders a floating-point operation or an Rng draw
// moves these hashes. A deliberate change to the simulated model must
// re-record them and say so. Part of the suite build runs on the pool
// (the per-SKU submit snapshot), so each hash is asserted at several pool
// widths; the tests carry the `concurrency` label for the TSan job.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "sim/datasets.h"

namespace rvar {
namespace sim {
namespace {

class Fingerprint {
 public:
  template <typename T>
  void Add(T value) {
    static_assert(std::is_arithmetic_v<T>);
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    h_ = Fnv1a(std::string_view(bytes, sizeof(T)), h_);
  }

  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (const T& v : values) Add(v);
  }

  void Add(const std::vector<std::pair<double, int>>& steps) {
    Add(static_cast<uint64_t>(steps.size()));
    for (const auto& [t, tokens] : steps) {
      Add(t);
      Add(tokens);
    }
  }

  void Add(const JobRun& run) {
    Add(run.group_id);
    Add(run.instance_id);
    Add(run.submit_time);
    Add(run.runtime_seconds);
    Add(run.rare_event);
    Add(run.machine_faults);
    Add(run.vertex_retries);
    Add(run.spare_revoked);
    Add(run.allocated_tokens);
    Add(run.max_tokens_used);
    Add(run.avg_tokens_used);
    Add(run.avg_spare_tokens);
    Add(run.skyline);
    Add(run.input_gb);
    Add(run.temp_data_gb);
    Add(run.total_vertices);
    Add(run.num_stages);
    Add(run.sku_vertex_fraction);
    Add(run.sku_cpu_util);
    Add(run.cpu_util_mean);
    Add(run.cpu_util_std);
    Add(run.cluster_baseline_util);
    Add(run.spare_availability);
  }

  void Add(const TelemetryStore& store) {
    Add(static_cast<uint64_t>(store.NumRuns()));
    for (const JobRun& run : store.runs()) Add(run);
    Add(static_cast<uint64_t>(store.NumQuarantined()));
    for (const JobRun& run : store.quarantined()) Add(run);
  }

  void Add(const StudySuite& suite) {
    Add(suite.d1.telemetry);
    Add(suite.d2.telemetry);
    Add(suite.d3.telemetry);
    const FaultReport& f = suite.faults;
    for (int64_t n : {f.machine_faults, f.vertex_retries, f.failed_jobs,
                      f.dropped_runs, f.corrupted_runs, f.reordered_runs,
                      f.quarantined_runs}) {
      Add(n);
    }
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kFnvOffsetBasis;
};

SuiteConfig SmallSuite() {
  SuiteConfig config;
  config.num_groups = 12;
  config.d1_days = 8.0;
  config.d2_days = 4.0;
  config.d3_days = 2.0;
  config.d1_support = 5;
  config.seed = 2024;
  return config;
}

uint64_t SuiteFingerprint(const StudySuite& suite) {
  Fingerprint fp;
  fp.Add(suite);
  return fp.value();
}

/// Pool widths every recorded hash must hold at.
constexpr int kPoolWidths[] = {1, 2, 3, 8};

/// Restores the default pool width when a test ends, pass or fail.
class PoolWidthGuard {
 public:
  ~PoolWidthGuard() { SetParallelThreads(0); }
};

// The expected hashes were recorded from the simulator as it stood before
// the utilization field's per-query invariants were hoisted.
TEST(SuiteFingerprintTest, CleanSuiteIsBitIdentical) {
  PoolWidthGuard guard;
  for (int width : kPoolWidths) {
    SCOPED_TRACE(width);
    SetParallelThreads(width);
    auto suite = BuildStudySuite(SmallSuite());
    ASSERT_TRUE(suite.ok()) << suite.status().ToString();
    EXPECT_GT(suite->d1.telemetry.NumRuns(), 100u);
    EXPECT_EQ(SuiteFingerprint(*suite), 0x9461ba2f53053918ULL);
  }
}

TEST(SuiteFingerprintTest, FaultedSuiteIsBitIdentical) {
  SuiteConfig config = SmallSuite();
  config.faults.seed = 7;
  config.faults.machine_fault_rate = 0.05;
  config.faults.token_revocation_rate = 0.10;
  config.faults.drop_run_rate = 0.02;
  config.faults.duplicate_run_rate = 0.02;
  config.faults.nan_runtime_rate = 0.02;
  config.faults.negative_runtime_rate = 0.02;
  config.faults.missing_columns_rate = 0.02;
  config.faults.reorder_window = 3;
  PoolWidthGuard guard;
  for (int width : kPoolWidths) {
    SCOPED_TRACE(width);
    SetParallelThreads(width);
    auto suite = BuildStudySuite(config);
    ASSERT_TRUE(suite.ok()) << suite.status().ToString();
    // Every fault channel must actually fire, or the hash proves nothing
    // about the fault paths.
    EXPECT_GT(suite->faults.machine_faults, 0);
    EXPECT_GT(suite->faults.quarantined_runs, 0);
    EXPECT_GT(suite->faults.dropped_runs, 0);
    bool any_revoked = false;
    for (const JobRun& run : suite->d1.telemetry.runs()) {
      any_revoked = any_revoked || run.spare_revoked;
    }
    EXPECT_TRUE(any_revoked);
    EXPECT_EQ(SuiteFingerprint(*suite), 0x0edb788170d07ed1ULL);
  }
}

}  // namespace
}  // namespace sim
}  // namespace rvar
