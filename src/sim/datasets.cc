#include "sim/datasets.h"

#include "common/parallel.h"
#include "common/strings.h"

namespace rvar {
namespace sim {
namespace {

/// Machine-utilization queries one pooled chunk of submit-time snapshots
/// must carry (~0.3 ms of hashing) to repay its dispatch (DESIGN.md §8).
constexpr size_t kMinMachineQueriesPerChunk = 65536;

/// Fills each run's sku_cpu_util: the mean utilization of every SKU at the
/// run's submit time. The snapshot reads only the immutable cluster and
/// draws nothing, so chunks of runs fill their own slots on the pool with
/// the values a serial loop would write.
void FillSubmitSkuUtilization(const Cluster& cluster,
                              std::vector<JobRun>* runs) {
  const size_t num_skus = cluster.catalog().NumSkus();
  // SkuUtilization reads ~64 machines of each SKU (its subsample).
  const size_t queries_per_run = num_skus * 64;
  ParallelFor(runs->size(),
              GrainForWork(runs->size(), runs->size() * queries_per_run,
                           kMinMachineQueriesPerChunk),
              [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      JobRun& run = (*runs)[i];
      run.sku_cpu_util.resize(num_skus);
      for (size_t s = 0; s < num_skus; ++s) {
        cluster.SkuUtilization(static_cast<int>(s), run.submit_time,
                               &run.sku_cpu_util[s], nullptr);
      }
    }
  });
}

}  // namespace

int DatasetSlice::NumQualifyingGroups() const {
  return static_cast<int>(telemetry.GroupsWithSupport(min_support).size());
}

int64_t DatasetSlice::NumQualifyingInstances() const {
  int64_t total = 0;
  for (int gid : telemetry.GroupsWithSupport(min_support)) {
    total += telemetry.Support(gid);
  }
  return total;
}

const JobGroupSpec& StudySuite::group(int group_id) const {
  RVAR_CHECK(group_id >= 0 &&
             static_cast<size_t>(group_id) < groups.size());
  RVAR_CHECK_EQ(groups[static_cast<size_t>(group_id)].group_id, group_id);
  return groups[static_cast<size_t>(group_id)];
}

Result<StudySuite> BuildStudySuite(SuiteConfig config) {
  if (config.num_groups <= 0) {
    return Status::InvalidArgument("num_groups must be positive");
  }
  if (config.d1_days <= 0.0 || config.d2_days <= 0.0 ||
      config.d3_days <= 0.0) {
    return Status::InvalidArgument("all interval lengths must be positive");
  }

  StudySuite suite;
  suite.config = config;

  RVAR_ASSIGN_OR_RETURN(
      Cluster cluster, Cluster::Make(SkuCatalog::Default(), config.cluster));
  suite.cluster = std::make_shared<const Cluster>(std::move(cluster));

  // One continuous timeline covering all three intervals.
  WorkloadConfig wl = config.workload;
  wl.num_groups = config.num_groups;
  wl.interval_days = config.d1_days + config.d2_days + config.d3_days;
  wl.seed = config.seed;
  WorkloadGenerator generator(wl);
  suite.groups = generator.GenerateGroups(
      static_cast<int>(suite.cluster->catalog().NumSkus()));
  const std::vector<JobInstanceSpec> instances =
      generator.GenerateInstances(suite.groups);

  suite.d1 = {"D1", config.d1_days, config.d1_support, {}};
  suite.d2 = {"D2", config.d2_days, config.d2_support, {}};
  suite.d3 = {"D3", config.d3_days, config.d3_support, {}};

  // The fault plan is only materialized when a fault channel is active, so
  // the default configuration takes the untouched clean path.
  const bool faults_active = config.faults.AnyActive();
  FaultPlan fault_plan = *FaultPlan::Make(FaultPlanConfig{});
  if (faults_active) {
    RVAR_ASSIGN_OR_RETURN(fault_plan, FaultPlan::Make(config.faults));
  }

  TokenScheduler scheduler(suite.cluster.get(), config.scheduler,
                           faults_active ? &fault_plan : nullptr);
  Rng rng(config.seed ^ 0x9E3779B97F4A7C15ULL);
  const double d1_end = config.d1_days * 86400.0;
  const double d2_end = d1_end + config.d2_days * 86400.0;
  DatasetSlice* slices[] = {&suite.d1, &suite.d2, &suite.d3};
  std::vector<JobRun> slice_runs[3];
  for (const JobInstanceSpec& inst : instances) {
    const JobGroupSpec& group = suite.group(inst.group_id);
    Result<JobRun> run = scheduler.Execute(group, inst, &rng);
    if (!run.ok()) {
      // A job abandoned by the fault injector leaves no telemetry; any
      // other failure is a real configuration error.
      if (faults_active &&
          run.status().code() == StatusCode::kResourceExhausted) {
        ++suite.faults.failed_jobs;
        continue;
      }
      return run.status();
    }
    suite.faults.machine_faults += run->machine_faults;
    suite.faults.vertex_retries += run->vertex_retries;
    const int slice =
        inst.submit_time < d1_end ? 0 : (inst.submit_time < d2_end ? 1 : 2);
    slice_runs[slice].push_back(std::move(*run));
  }

  for (int s = 0; s < 3; ++s) {
    // Before CorruptTelemetry, which may clear the column.
    FillSubmitSkuUtilization(*suite.cluster, &slice_runs[s]);
    if (!faults_active) {
      for (JobRun& run : slice_runs[s]) {
        slices[s]->telemetry.Add(std::move(run));
      }
      continue;
    }
    TelemetryFaultStats stats;
    std::vector<JobRun> corrupted =
        fault_plan.CorruptTelemetry(std::move(slice_runs[s]), &stats);
    suite.faults.dropped_runs += stats.dropped;
    suite.faults.corrupted_runs += stats.NumCorrupt();
    suite.faults.reordered_runs += stats.reordered;
    for (JobRun& run : corrupted) {
      // Non-OK means quarantined; the store keeps the exact tally.
      slices[s]->telemetry.Ingest(std::move(run));
    }
    suite.faults.quarantined_runs +=
        static_cast<int64_t>(slices[s]->telemetry.NumQuarantined());
  }
  return suite;
}

}  // namespace sim
}  // namespace rvar
