// Copyright 2026 The rvar Authors.
//
// Token-based job execution. A job's vertices execute in stage order; each
// stage runs in waves bounded by the tokens the job holds (guaranteed
// allocation + opportunistic spare tokens, as in Cosmos/Apollo [7]). Stage
// time depends on the SKUs and load of the machines the vertices land on;
// rare events (stragglers, service disruptions) stretch a stage by a
// heavy-tailed factor. The result carries the full telemetry the paper's
// predictor consumes.

#ifndef RVAR_SIM_SCHEDULER_H_
#define RVAR_SIM_SCHEDULER_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "sim/cluster.h"
#include "sim/workload.h"

namespace rvar {
namespace sim {

/// \brief Scheduler/execution-model knobs.
struct SchedulerConfig {
  /// GB of input data processed by one vertex.
  double data_per_vertex_gb = 2.0;
  /// Seconds for one Gen5 vertex to process 1 GB at unit operator cost.
  double seconds_per_gb = 6.0;
  /// Data shrink factor from one stage to the next (aggregation etc.).
  double stage_shrink = 0.6;
  /// Amdahl serial share of each stage's work (coordination, skew, final
  /// merge) that does not parallelize across tokens.
  double serial_fraction = 0.008;
  /// Fixed per-stage scheduling overhead, seconds.
  double stage_overhead_seconds = 3.0;
  /// How strongly machine load inflates vertex time: factor is
  /// 1 / (1 - contention_strength * utilization).
  double contention_strength = 0.55;
  /// How aggressively placement prefers idle machines.
  double placement_greed = 1.5;
  /// Spare tokens usable, as a multiple of the allocation (production work
  /// caps this multiplier; Section 7.1).
  double spare_multiplier_cap = 4.0;
  /// Set false to globally disable spare tokens (Scenario 1).
  bool enable_spare_tokens = true;
  /// Scale of multiplicative lognormal runtime noise.
  double noise_sigma = 0.06;
  /// Pareto tail exponent of rare-event slowdowns (smaller = heavier).
  double rare_event_alpha = 0.95;
  /// Cap on the rare-event slowdown factor.
  double rare_event_max_factor = 60.0;
  /// Machines sampled per stage to estimate placement mix.
  int placement_sample = 48;
  /// Re-executions of a stage wave killed by an injected machine fault
  /// before the job is abandoned (0 = the first fault is fatal). Only
  /// consulted when a FaultPlan is attached.
  int max_vertex_retries = 3;
  /// Base of the exponential retry backoff, simulated seconds: retry k is
  /// re-dispatched after retry_backoff_seconds * 2^k.
  double retry_backoff_seconds = 8.0;
  /// Jitter half-width on the backoff, in [0, 0.99]: each retry's wait is
  /// scaled by a uniform draw from [1 - j, 1 + j], so simultaneous fault
  /// victims decorrelate instead of retrying as one storm. The draw comes
  /// from a dedicated Rng keyed by (instance, stage, attempt) — NOT the
  /// simulation stream — so replay stays bit-identical: the same seed
  /// yields the same jitter, and non-fault paths draw nothing at all.
  double retry_jitter = 0.5;
};

/// \brief Everything observed about one executed job instance: the ground
/// truth runtime plus the compile-time/submit-time features (Section 5.1).
struct JobRun {
  int group_id = 0;
  int64_t instance_id = 0;
  double submit_time = 0.0;

  // --- Outcome ---
  double runtime_seconds = 0.0;
  /// Whether a rare slowdown event hit this run.
  bool rare_event = false;
  /// Stage waves killed by injected machine faults.
  int machine_faults = 0;
  /// Stage re-executions after machine faults (bounded retries).
  int vertex_retries = 0;
  /// Whether spare tokens were revoked mid-job.
  bool spare_revoked = false;

  // --- Resource telemetry ---
  int allocated_tokens = 0;
  int max_tokens_used = 0;
  double avg_tokens_used = 0.0;
  double avg_spare_tokens = 0.0;
  /// Token usage over time: (start_second, token_count) steps.
  std::vector<std::pair<double, int>> skyline;

  // --- Job size telemetry ---
  double input_gb = 0.0;
  double temp_data_gb = 0.0;  ///< intermediate data across stages
  int total_vertices = 0;
  int num_stages = 0;

  // --- Placement / environment telemetry ---
  std::vector<double> sku_vertex_fraction;  ///< per SKU, sums to ~1
  /// Per SKU mean util at submit (Cluster::SkuUtilization). Filled by
  /// BuildStudySuite, not by TokenScheduler::Execute.
  std::vector<double> sku_cpu_util;
  double cpu_util_mean = 0.0;  ///< across the sampled placement machines
  double cpu_util_std = 0.0;
  double cluster_baseline_util = 0.0;
  double spare_availability = 0.0;
};

class FaultPlan;  // sim/faults.h

/// \brief Executes job instances against a Cluster.
class TokenScheduler {
 public:
  /// `cluster` (and `faults`, when non-null) must outlive the scheduler.
  /// With a FaultPlan attached, machine faults kill in-flight stage waves;
  /// the wave is re-executed after an exponential backoff, up to
  /// config.max_vertex_retries times, after which Execute fails with
  /// ResourceExhausted (the job is abandoned and yields no telemetry).
  TokenScheduler(const Cluster* cluster, SchedulerConfig config,
                 const FaultPlan* faults = nullptr);

  const SchedulerConfig& config() const { return config_; }

  /// Runs one instance of `group`, consuming randomness from `rng`.
  /// Fails if the group's allocation is non-positive or input is invalid.
  /// Does not fill `sku_cpu_util` and leaves it empty: that per-SKU
  /// snapshot is a pure function of submit_time that draws nothing, so
  /// BuildStudySuite fills it on the pool, off the serial Rng chain.
  Result<JobRun> Execute(const JobGroupSpec& group,
                         const JobInstanceSpec& instance, Rng* rng) const;

 private:
  const Cluster* cluster_;
  SchedulerConfig config_;
  const FaultPlan* faults_;
};

}  // namespace sim
}  // namespace rvar

#endif  // RVAR_SIM_SCHEDULER_H_
