#include "sim/scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "sim/faults.h"
#include "stats/descriptive.h"

namespace rvar {
namespace sim {

namespace {

/// Surfaced-fault accounting: what the executed workload actually felt, as
/// opposed to what the FaultPlan injected (faults.cc). Abandons are the
/// runs that never became telemetry.
struct SchedulerMetrics {
  obs::Counter* jobs_total;
  obs::Counter* machine_faults_total;
  obs::Counter* vertex_retries_total;
  obs::Counter* jobs_abandoned_total;
  obs::Counter* spare_revocations_total;

  static const SchedulerMetrics& Get() {
    static const SchedulerMetrics metrics = [] {
      obs::Registry& r = obs::Registry::Default();
      return SchedulerMetrics{
          r.GetCounter("scheduler_jobs_total"),
          r.GetCounter("scheduler_machine_faults_total"),
          r.GetCounter("scheduler_vertex_retries_total"),
          r.GetCounter("scheduler_jobs_abandoned_total"),
          r.GetCounter("scheduler_spare_revocations_total")};
    }();
    return metrics;
  }
};

}  // namespace

TokenScheduler::TokenScheduler(const Cluster* cluster, SchedulerConfig config,
                               const FaultPlan* faults)
    : cluster_(cluster), config_(config), faults_(faults) {
  RVAR_CHECK(cluster != nullptr);
}

Result<JobRun> TokenScheduler::Execute(const JobGroupSpec& group,
                                       const JobInstanceSpec& instance,
                                       Rng* rng) const {
  RVAR_CHECK(rng != nullptr);
  if (group.allocated_tokens <= 0) {
    return Status::InvalidArgument(
        StrCat("group ", group.group_id, " has non-positive allocation"));
  }
  if (instance.input_gb <= 0.0 || !std::isfinite(instance.input_gb)) {
    return Status::InvalidArgument(
        StrCat("instance ", instance.instance_id, " has bad input size"));
  }
  if (group.plan.num_stages <= 0) {
    return Status::InvalidArgument(
        StrCat("group ", group.group_id, " has an empty plan"));
  }
  for (const PlanNode& node : group.plan.nodes) {
    if (node.stage < 0 || node.stage >= group.plan.num_stages) {
      return Status::InvalidArgument(
          StrCat("group ", group.group_id, " has a plan node in stage ",
                 node.stage, " outside [0,", group.plan.num_stages, ")"));
    }
  }

  const size_t num_skus = cluster_->catalog().NumSkus();
  const double t0 = instance.submit_time;

  JobRun run;
  run.group_id = group.group_id;
  run.instance_id = instance.instance_id;
  run.submit_time = t0;
  run.input_gb = instance.input_gb;
  run.num_stages = group.plan.num_stages;
  run.allocated_tokens = group.allocated_tokens;
  run.cluster_baseline_util = cluster_->BaselineUtilization(t0);
  run.spare_availability = cluster_->SpareAvailability(t0);
  run.sku_vertex_fraction.assign(num_skus, 0.0);

  // Spare tokens: a fraction of the exposed pool, proportional to the
  // allocation and capped at spare_multiplier_cap * allocation.
  int spare_tokens = 0;
  if (config_.enable_spare_tokens && group.uses_spare_tokens) {
    const double cap =
        config_.spare_multiplier_cap * group.allocated_tokens;
    spare_tokens = static_cast<int>(cap * run.spare_availability *
                                    rng->Uniform(0.2, 1.0));
  }
  const int total_tokens = group.allocated_tokens + spare_tokens;

  // Startup overhead (compilation hand-off, container setup): small and
  // load-dependent but deterministic — runtime is measured from execution
  // start, so queueing randomness does not pollute it.
  double elapsed =
      2.0 + 4.0 * std::exp(3.0 * (run.cluster_baseline_util - 0.55));

  // Per-operator work shares per stage.
  std::vector<double> stage_cost(static_cast<size_t>(group.plan.num_stages),
                                 0.0);
  for (const PlanNode& node : group.plan.nodes) {
    stage_cost[static_cast<size_t>(node.stage)] +=
        OperatorCostFactor(node.op);
  }

  RunningStats util_stats;
  double token_seconds = 0.0, spare_token_seconds = 0.0;
  std::vector<double> placed_util;

  // Per-vertex share of the per-SKU accounting.
  for (int s = 0; s < group.plan.num_stages; ++s) {
    // Partition (vertex) counts are fixed by the compiled plan — they are
    // part of the group's signature — sized for the group's typical input.
    // The *data* each vertex processes follows this instance's input, so
    // input drift flows into per-vertex work.
    const double planned_data =
        group.base_input_gb * std::pow(config_.stage_shrink, s);
    const double stage_data =
        instance.input_gb * std::pow(config_.stage_shrink, s);
    if (s > 0) run.temp_data_gb += stage_data;
    const int vertices = std::max(
        1, static_cast<int>(std::ceil(planned_data /
                                      config_.data_per_vertex_gb)));
    run.total_vertices += vertices;

    // A token revocation strips the spare tokens for the rest of the job;
    // vertices running on them are killed and re-planned at the guaranteed
    // allocation.
    if (faults_ != nullptr && !run.spare_revoked && spare_tokens > 0 &&
        faults_->SpareRevocation(instance.instance_id, s)) {
      run.spare_revoked = true;
      SchedulerMetrics::Get().spare_revocations_total->Increment();
    }
    const int tokens_now =
        run.spare_revoked ? group.allocated_tokens : total_tokens;
    const int parallelism = std::min(vertices, tokens_now);

    // Execute the stage wave; an injected machine fault kills the wave
    // part-way through (the partial work and held tokens are lost) and the
    // wave is re-placed and re-executed after an exponential backoff.
    double stage_time = 0.0;
    for (int attempt = 0;; ++attempt) {
      // Sample representative machines for this attempt's placement.
      const int sample = std::min(parallelism, config_.placement_sample);
      const double greed = group.placement_greed >= 0.0
                               ? group.placement_greed
                               : config_.placement_greed;
      const std::vector<int> placed = cluster_->SamplePlacement(
          sample, t0 + elapsed, greed, group.preferred_sku,
          group.sku_preference, rng, &placed_util);
      double speed_sum = 0.0, contention_sum = 0.0;
      for (size_t i = 0; i < placed.size(); ++i) {
        const Machine& m = cluster_->machines()[static_cast<size_t>(placed[i])];
        const double util = placed_util[i];
        util_stats.Add(util);
        speed_sum += cluster_->catalog()
                         .sku(static_cast<size_t>(m.sku_index))
                         .speed;
        const double effective = std::min(
            0.92,
            config_.contention_strength * group.contention_sensitivity *
                util);
        contention_sum += 1.0 / (1.0 - effective);
        run.sku_vertex_fraction[static_cast<size_t>(m.sku_index)] +=
            static_cast<double>(vertices) / sample;
      }
      const double mean_speed = speed_sum / placed.size();
      const double mean_contention = contention_sum / placed.size();

      // Amdahl decomposition of the stage: a serial share (coordination,
      // skewed partitions, final merge) scales with the data regardless of
      // parallelism; the rest divides across the tokens held. Vertex-count
      // quantization is smoothed (vertex durations vary, so wave
      // boundaries blur in practice).
      const double total_work = stage_data *
                                stage_cost[static_cast<size_t>(s)] *
                                config_.seconds_per_gb;
      const double serial_work = config_.serial_fraction * total_work;
      const double parallel_work =
          (1.0 - config_.serial_fraction) * total_work / parallelism;
      stage_time =
          config_.stage_overhead_seconds +
          (serial_work + parallel_work) * mean_contention / mean_speed *
              rng->LogNormal(0.0, config_.noise_sigma);

      if (faults_ == nullptr ||
          !faults_->MachineFault(instance.instance_id, s, attempt)) {
        break;
      }
      ++run.machine_faults;
      // The wave dies part-way through the stage; the completed fraction
      // of the work is lost but its wall-clock and token-hold are not.
      const double lost =
          stage_time *
          faults_->FaultFraction(instance.instance_id, s, attempt);
      elapsed += lost;
      token_seconds += static_cast<double>(parallelism) * lost;
      spare_token_seconds +=
          static_cast<double>(
              std::max(0, parallelism - group.allocated_tokens)) *
          lost;
      SchedulerMetrics::Get().machine_faults_total->Increment();
      if (attempt >= config_.max_vertex_retries) {
        SchedulerMetrics::Get().jobs_abandoned_total->Increment();
        return Status::ResourceExhausted(StrCat(
            "instance ", instance.instance_id, " of group ", group.group_id,
            " abandoned after ", attempt + 1, " machine faults in stage ",
            s));
      }
      double backoff = config_.retry_backoff_seconds * std::pow(2.0, attempt);
      const double j = std::clamp(config_.retry_jitter, 0.0, 0.99);
      if (j > 0.0) {
        // A dedicated Rng keyed by the retry identity, not the simulation
        // stream: the main stream's draw sequence is untouched (replay of
        // fault-free runs is byte-identical to a jitter-free build), yet
        // the same (seed, instance, stage, attempt) always jitters the
        // same way.
        Rng jitter_rng(HashCombine(
            HashCombine(HashCombine(kFnvOffsetBasis,
                                    static_cast<uint64_t>(instance.instance_id)),
                        static_cast<uint64_t>(group.group_id)),
            (static_cast<uint64_t>(s) << 32) |
                static_cast<uint64_t>(attempt)));
        backoff *= jitter_rng.Uniform(1.0 - j, 1.0 + j);
      }
      elapsed += backoff;
      SchedulerMetrics::Get().vertex_retries_total->Increment();
      ++run.vertex_retries;
    }

    // Skyline: the job holds `used` tokens for this stage's duration.
    const int used = parallelism;
    run.skyline.push_back({elapsed, used});
    run.max_tokens_used = std::max(run.max_tokens_used, used);
    token_seconds += static_cast<double>(used) * stage_time;
    spare_token_seconds +=
        static_cast<double>(std::max(0, used - group.allocated_tokens)) *
        stage_time;
    elapsed += stage_time;
  }

  // Rare events (service disruptions, token revocation, network
  // degradation): hotter clusters disrupt more often. The hit stretches
  // the whole job by a heavy-tailed factor.
  const double event_prob =
      group.rare_event_prob * (0.5 + run.cluster_baseline_util);
  if (rng->Bernoulli(std::min(event_prob, 0.5))) {
    run.rare_event = true;
    const double factor = std::min(rng->Pareto(4.0, config_.rare_event_alpha),
                                   config_.rare_event_max_factor);
    elapsed *= factor;
    // The job keeps holding its tokens through the stall.
    token_seconds *= factor;
    spare_token_seconds *= factor;
  }

  SchedulerMetrics::Get().jobs_total->Increment();
  run.runtime_seconds = elapsed;
  run.avg_tokens_used =
      elapsed > 0.0 ? token_seconds / elapsed : 0.0;
  run.avg_spare_tokens =
      elapsed > 0.0 ? spare_token_seconds / elapsed : 0.0;
  run.cpu_util_mean = util_stats.mean();
  run.cpu_util_std = util_stats.stddev();

  // Normalize SKU vertex fractions.
  double frac_total = 0.0;
  for (double f : run.sku_vertex_fraction) frac_total += f;
  if (frac_total > 0.0) {
    for (double& f : run.sku_vertex_fraction) f /= frac_total;
  }
  return run;
}

}  // namespace sim
}  // namespace rvar
