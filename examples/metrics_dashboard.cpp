// Metrics dashboard: what an operator scraping the serving stack sees.
//
// The example drives the instrumented pipeline the way production would:
// corrupt telemetry flows through TelemetryStore::Ingest (quarantine
// counters), a shape library is built and served by ShapeService from
// several client threads at once (latency histograms, per-shard
// observe and contention counters), and a predictor trains over a
// simulated study (phase trace
// spans). It then prints the three export surfaces:
//
//   1. Prometheus text exposition — what a scrape of /metrics returns,
//   2. the JSON snapshot — counters/gauges/histograms with quantiles,
//   3. the span buffer — the predictor's phase timing tree.
//
// A model-lifecycle loop (retrain → gate → hot swap, an injected
// corrupt candidate, a rollback) runs as well, so the lifecycle_* swap,
// quarantine-by-reason, and rollback counters land on all surfaces.
//
// Build & run:  ./build/examples/metrics_dashboard

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/model_lifecycle.h"
#include "core/predictor.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "io/model_registry.h"
#include "ml/dataset.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/datasets.h"
#include "sim/faults.h"
#include "sim/telemetry.h"

using namespace rvar;

int main() {
  // --- 1. Corrupt telemetry through the quarantining ingest path. ---------
  sim::FaultPlanConfig fault_config;
  fault_config.drop_run_rate = 0.02;
  fault_config.duplicate_run_rate = 0.04;
  fault_config.nan_runtime_rate = 0.03;
  fault_config.negative_runtime_rate = 0.02;
  fault_config.missing_columns_rate = 0.03;
  auto plan = sim::FaultPlan::Make(fault_config);
  if (!plan.ok()) return 1;

  Rng rng(77);
  std::vector<sim::JobRun> raw;
  int64_t next_instance = 0;
  for (int g = 0; g < 24; ++g) {
    const double median = rng.Uniform(100.0, 400.0);
    for (int i = 0; i < 50; ++i) {
      const double factor = rng.Bernoulli(0.3) ? rng.Normal(3.0, 0.15)
                                               : rng.Normal(1.0, 0.06);
      sim::JobRun run;
      run.group_id = g;
      run.instance_id = next_instance++;
      run.input_gb = rng.Uniform(5.0, 50.0);
      run.runtime_seconds = median * std::max(0.05, factor);
      run.sku_vertex_fraction = {0.6, 0.4};
      run.sku_cpu_util = {rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8)};
      raw.push_back(run);
    }
  }
  sim::TelemetryStore store;
  core::GroupMedians medians;
  for (sim::JobRun& run : plan->CorruptTelemetry(std::move(raw), nullptr)) {
    (void)store.Ingest(std::move(run));
  }
  for (int g = 0; g < 24; ++g) {
    std::vector<double> runtimes = store.GroupRuntimes(g);
    if (runtimes.empty()) continue;
    std::sort(runtimes.begin(), runtimes.end());
    medians.Set(g, runtimes[runtimes.size() / 2]);
  }
  std::printf("ingested %zu runs, quarantined %zu\n", store.NumRuns(),
              store.NumQuarantined());

  // --- 2. Serve the shape library from several client threads. ------------
  core::ShapeLibraryConfig library_config;
  library_config.num_clusters = 2;
  library_config.min_support = 20;
  auto library = core::ShapeLibrary::Build(store, medians, library_config);
  if (!library.ok()) return 1;
  auto service = core::ShapeService::Make(&*library);
  if (!service.ok()) return 1;

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&service, t] {
      Rng client_rng(900 + static_cast<uint64_t>(t));
      for (int i = 0; i < 5000; ++i) {
        // Overlapping group sets across threads, so shards contend.
        const int group = (t * 5 + i) % 24;
        (void)(*service)->Observe(group, client_rng.Uniform(0.5, 3.5));
        if (i % 8 == 0) (void)(*service)->PriorShape(group);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::printf("served %lld observations across %zu groups\n\n",
              static_cast<long long>((*service)->TotalObservations()),
              (*service)->NumGroups());

  // --- 3. Train a predictor so the phase spans populate. -------------------
  sim::SuiteConfig suite_config;
  suite_config.num_groups = 60;
  suite_config.d1_days = 8.0;
  suite_config.d2_days = 4.0;
  suite_config.d3_days = 2.0;
  suite_config.seed = 78;
  auto suite = sim::BuildStudySuite(suite_config);
  if (!suite.ok()) return 1;
  core::PredictorConfig predictor_config;
  predictor_config.shape.min_support = 20;
  auto predictor = core::VariationPredictor::Train(*suite, predictor_config);
  if (!predictor.ok()) return 1;

  // --- 4. Model lifecycle: swap, quarantine, and rollback counters. --------
  {
    const std::string registry_dir =
        (std::filesystem::temp_directory_path() / "rvar_dashboard_registry")
            .string();
    std::filesystem::remove_all(registry_dir);
    core::ModelLifecycleOptions lifecycle_options;
    lifecycle_options.dir = registry_dir;
    lifecycle_options.gbdt.num_rounds = 6;
    auto lifecycle = core::ModelLifecycle::Open(lifecycle_options);
    if (!lifecycle.ok()) return 1;
    // The lifecycle mirrors every published epoch into the shape
    // service's model slot, bumping its swap counter too.
    (*lifecycle)->AttachShapeService(service->get());

    auto window = [&](uint64_t seed) {
      ml::Dataset d;
      d.feature_names = {"x0", "x1"};
      Rng wrng(seed);
      for (int c = 0; c < 2; ++c) {
        for (int i = 0; i < 50; ++i) {
          d.x.push_back({wrng.Normal(c * 3.0, 0.6),
                         wrng.Normal(c * 3.0 + 1.0, 0.6)});
          d.y.push_back(c);
          d.target.push_back(0.0);
        }
      }
      return d;
    };
    // Two clean cycles (cold, then warm-started), one candidate hit by
    // injected bit rot between training and the gate, then a rollback.
    (void)(*lifecycle)->RetrainAndSwap(window(1), 0, 100);
    (void)(*lifecycle)->RetrainAndSwap(window(2), 100, 200);
    auto candidate = (*lifecycle)->TrainCandidate(window(3), 200, 300);
    if (candidate.ok()) {
      const sim::StorageFaultPlan storage_faults(91);
      (void)storage_faults.CorruptFile(
          (*lifecycle)->registry().ModelPath(*candidate), 4, 0.0);
      (void)(*lifecycle)->ValidateAndSwap(*candidate, window(3));
    }
    (void)(*lifecycle)->Rollback(1);
    std::printf(
        "lifecycle: serving v%lld of %zu registered versions\n\n",
        static_cast<long long>((*lifecycle)->live_version()),
        (*lifecycle)->registry().Versions().size());
    std::filesystem::remove_all(registry_dir);
  }

  // --- The three export surfaces. ------------------------------------------
  std::printf("================ Prometheus text exposition ================\n");
  std::printf("%s\n", obs::DumpPrometheusText().c_str());
  std::printf("===================== JSON snapshot ========================\n");
  std::printf("%s\n", obs::DumpJson().c_str());
  std::printf("==================== trace spans (JSON) ====================\n");
  std::printf("%s", obs::DumpSpansJson().c_str());
  return 0;
}
