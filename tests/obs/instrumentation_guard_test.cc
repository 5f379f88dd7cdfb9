// Instrumentation guard: the obs layer must be write-only — toggling
// sampling on or off cannot change any computed result. The whole
// instrumented pipeline (corrupt-telemetry ingest, shape library build,
// canonical snapshot encoding, concurrent serving) runs once per sampling
// setting and every artifact is compared byte-for-byte / bit-for-bit.
// Lives in the `concurrency`-labeled binary so TSan sees the instrumented
// multi-threaded serving path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "sim/faults.h"
#include "sim/telemetry.h"

namespace rvar {
namespace core {
namespace {

// Deterministic corrupt run stream: clean bimodal runs plus injected
// NaN/negative/duplicate faults, all derived from fixed seeds.
std::vector<sim::JobRun> MakeRuns() {
  Rng rng(91);
  std::vector<sim::JobRun> runs;
  int64_t next_instance = 0;
  for (int g = 0; g < 12; ++g) {
    const double median = rng.Uniform(100.0, 300.0);
    for (int i = 0; i < 50; ++i) {
      const double factor = rng.Bernoulli(0.4) ? rng.Normal(3.0, 0.1)
                                               : rng.Normal(1.0, 0.05);
      sim::JobRun run;
      run.group_id = g;
      run.instance_id = next_instance++;
      run.input_gb = 10.0;
      run.runtime_seconds = median * std::max(0.05, factor);
      // Feature columns must be present and finite to pass Ingest.
      run.sku_vertex_fraction = {0.7, 0.3};
      run.sku_cpu_util = {rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8)};
      runs.push_back(run);
    }
  }
  return runs;
}

struct PipelineArtifacts {
  std::string library_bytes;
  std::vector<std::vector<double>> posteriors;
  int64_t quarantined = 0;
};

// One full instrumented pipeline pass under the current sampling setting.
PipelineArtifacts RunPipeline() {
  PipelineArtifacts artifacts;

  sim::FaultPlanConfig fault_config;
  fault_config.nan_runtime_rate = 0.05;
  fault_config.negative_runtime_rate = 0.05;
  fault_config.duplicate_run_rate = 0.05;
  auto plan = sim::FaultPlan::Make(fault_config);
  EXPECT_TRUE(plan.ok());

  sim::TelemetryStore store;
  GroupMedians medians;
  for (sim::JobRun& run : plan->CorruptTelemetry(MakeRuns(), nullptr)) {
    (void)store.Ingest(std::move(run));  // corrupt runs quarantine here
  }
  artifacts.quarantined = static_cast<int64_t>(store.NumQuarantined());
  for (int g = 0; g < 12; ++g) {
    const std::vector<double> runtimes = store.GroupRuntimes(g);
    std::vector<double> sorted = runtimes;
    std::sort(sorted.begin(), sorted.end());
    medians.Set(g, sorted[sorted.size() / 2]);
  }

  ShapeLibraryConfig config;
  config.num_clusters = 2;
  config.min_support = 20;
  auto library = ShapeLibrary::Build(store, medians, config);
  EXPECT_TRUE(library.ok());
  artifacts.library_bytes = io::EncodeShapeLibrary(*library);

  // Concurrent serving over the library: per-group streams from multiple
  // threads, then single-threaded posterior reads (per-group order is
  // deterministic because each thread owns its groups).
  auto service = ShapeService::Make(&*library);
  EXPECT_TRUE(service.ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&service, t] {
      for (int g = t * 3; g < t * 3 + 3; ++g) {
        Rng rng(500 + static_cast<uint64_t>(g));
        for (int i = 0; i < 200; ++i) {
          EXPECT_TRUE(
              (*service)->Observe(g, rng.Uniform(0.5, 3.5)).ok());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int g = 0; g < 12; ++g) {
    std::vector<double> p;
    for (int c = 0; c < (*service)->library().num_clusters(); ++c) {
      p.push_back((*service)->ProbabilityOf(g, c));
    }
    artifacts.posteriors.push_back(std::move(p));
  }
  return artifacts;
}

TEST(InstrumentationGuard, SamplingDoesNotChangeResults) {
  obs::SetSampling(true);
  const PipelineArtifacts with_sampling = RunPipeline();
  obs::SetSampling(false);
  const PipelineArtifacts without_sampling = RunPipeline();
  obs::SetSampling(true);

  ASSERT_FALSE(with_sampling.library_bytes.empty());
  EXPECT_EQ(with_sampling.library_bytes, without_sampling.library_bytes)
      << "instrumentation changed the canonical snapshot bytes";
  EXPECT_EQ(with_sampling.quarantined, without_sampling.quarantined);
  ASSERT_EQ(with_sampling.posteriors.size(),
            without_sampling.posteriors.size());
  for (size_t g = 0; g < with_sampling.posteriors.size(); ++g) {
    ASSERT_EQ(with_sampling.posteriors[g].size(),
              without_sampling.posteriors[g].size());
    for (size_t k = 0; k < with_sampling.posteriors[g].size(); ++k) {
      // Bit-for-bit, not approximately: instrumentation must not perturb
      // a single operation in the serving math.
      EXPECT_EQ(with_sampling.posteriors[g][k],
                without_sampling.posteriors[g][k])
          << "group " << g << " component " << k;
    }
  }
}

TEST(InstrumentationGuard, MetricsDoMoveWhileResultsDoNot) {
  // Sanity check on the guard itself: the pipeline genuinely exercises the
  // instrumented paths (counters advance), so the byte-equality above is
  // a real statement and not a vacuous one.
  obs::Registry& r = obs::Registry::Default();
  const int64_t ingest_before =
      r.GetCounter("telemetry_ingest_total")->Value();
  const int64_t observe_before =
      r.GetCounter("shape_service_observe_total")->Value();
  obs::SetSampling(true);
  (void)RunPipeline();
  EXPECT_GT(r.GetCounter("telemetry_ingest_total")->Value(), ingest_before);
  EXPECT_GT(r.GetCounter("shape_service_observe_total")->Value(),
            observe_before);
}

}  // namespace
}  // namespace core
}  // namespace rvar
