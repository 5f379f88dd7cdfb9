// Copyright 2026 The rvar Authors.
//
// Overload-resilient serving front-end (DESIGN.md §12–13) in front of
// core::ShapeService + core::VariationPredictor. Every request carries a
// deadline budget and a priority tier, and is routed — by the same
// group-id hash the ShapeService uses to partition its tracker state —
// to one bounded queue per service shard. Admission control (token
// bucket + queue-depth watermarks, serve/admission.h, sliced per shard
// from one aggregate budget) sheds load by tier *before* a shard queue
// grows; each shard's owning worker drains its queue in micro-batches so
// GBDT inference amortizes over the flattened forest the way
// PredictShapeBatch already allows, scoring against the shard-local model
// replica; and a circuit breaker (serve/circuit_breaker.h) wired to
// model-lifecycle health drives an explicit degradation ladder, applied
// per shard:
//
//   full model  ->  pinned stale model epoch (per shard)  ->  prior
//
// so a sick, quarantined, or mid-swap model yields *degraded answers,
// never errors or blocking* — and the prior rung always answers a valid
// shape: never-observed groups get the library's global-prior argmax,
// still labeled kPrior. Expired
// requests are shed with a labeled response instead of being served
// late. Every admission decision, shed, breaker transition, and
// degradation level lands on the obs metrics surfaces (serve_*
// counters/histograms/gauges; queue depth is per shard).

#ifndef RVAR_SERVE_FRONTEND_H_
#define RVAR_SERVE_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/model_lifecycle.h"
#include "core/predictor.h"
#include "core/shape_service.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/request.h"

namespace rvar {
namespace serve {

/// \brief Front-end knobs.
struct FrontendOptions {
  /// Aggregate admission budget; divided across the service's shards with
  /// AdmissionOptions::ShardSlice, so per-shard queues keep the same total
  /// capacity, watermarks, and token rate at any shard count.
  AdmissionOptions admission;
  CircuitBreakerOptions breaker;
  /// Requests scored per predictor call; a shard queue drains in batches
  /// of up to this many.
  int max_batch = 64;
  /// How long a worker waits for the batch to fill before serving a
  /// partial one. Zero serves whatever is queued immediately.
  std::chrono::microseconds batch_linger{200};
  /// Deadline budget applied when a request does not set its own.
  std::chrono::milliseconds default_deadline{50};
  /// Worker threads; shards are assigned round-robin, and each shard is
  /// drained by exactly one worker (effective workers = min(num_workers,
  /// service shards)).
  int num_workers = 1;
  /// Optional extra model-health signal ANDed with "the service's model
  /// slot is non-null" — see LifecycleHealthProbe. Must be thread-safe;
  /// called once per batch.
  std::function<bool()> health_probe;
};

/// \brief Deadline-aware, admission-controlled, shard-routed,
/// micro-batching front-end.
///
/// Thread-safe: Submit/Predict may be called from any number of threads.
/// The full-model rung scores each shard's batches against that shard's
/// published model replica (the slot ModelLifecycle::AttachShapeService
/// feeds via ShapeService::SwapModel), so a lifecycle swap, rollback, or
/// quarantine is picked up on the next batch without any front-end
/// involvement.
class ServingFrontend {
 public:
  /// `service` must outlive the front-end; its shard count fixes the
  /// queue topology. `predictor` (used for featurization and epoch-pinned
  /// scoring) may be null, in which case every answer comes from the
  /// prior rung. Validates all options.
  static Result<std::unique_ptr<ServingFrontend>> Make(
      const core::ShapeService* service,
      const core::VariationPredictor* predictor, FrontendOptions options);

  ~ServingFrontend();

  ServingFrontend(const ServingFrontend&) = delete;
  ServingFrontend& operator=(const ServingFrontend&) = delete;

  /// Admission-checks (against the owning shard's queue) and enqueues one
  /// request. The future always resolves: served, shed (labeled with the
  /// reason), or shut down — a request is never silently dropped and
  /// never blocks indefinitely.
  std::future<PredictResponse> Submit(PredictRequest request);

  /// Submit + wait, with the deadline derived from `budget`. The wait is
  /// bounded: the worker sheds expired requests instead of serving them
  /// late.
  PredictResponse Predict(const sim::JobRun& run, Priority priority,
                          std::chrono::steady_clock::duration budget);

  /// Stops the workers; queued requests resolve as shed(kShutdown).
  /// Idempotent; also run by the destructor.
  void Shutdown();

  /// Total depth across all shard queues.
  size_t queue_depth() const;
  /// Depth of one shard's queue.
  size_t shard_queue_depth(size_t shard_index) const;
  size_t num_shards() const { return shards_.size(); }
  BreakerState breaker_state() const;
  const FrontendOptions& options() const { return options_; }

  /// Health probe bound to a model lifecycle: healthy while some version
  /// serves (live_version() >= 0). A forced quarantine with no rollback
  /// target clears the live version, which trips the breaker here and
  /// drops the front-end onto the stale rung. `lifecycle` must outlive
  /// the returned function.
  static std::function<bool()> LifecycleHealthProbe(
      const core::ModelLifecycle* lifecycle);

 private:
  struct Pending {
    PredictRequest request;
    std::promise<PredictResponse> promise;
    std::chrono::steady_clock::time_point submitted;
  };

  /// One bounded queue, mirroring one ShapeService shard. Guarded by the
  /// owning worker's mutex — submitters lock that worker; only the owning
  /// worker drains. `stale` (the pinned last-known-good epoch for this
  /// shard's ladder) is touched exclusively by the owning worker thread.
  struct ShardQueue {
    std::deque<Pending> queue;
    std::unique_ptr<AdmissionController> admission;  ///< per-shard slice
    obs::Gauge* depth_gauge = nullptr;
    /// Last epoch that served this shard a full-model batch; the stale
    /// rung. Never reset — stale answers beat no answers. Worker-only.
    std::shared_ptr<const ml::GbdtClassifier> stale;
  };

  /// One worker thread plus the synchronization for the shard queues it
  /// owns. A shard belongs to exactly one worker (shard % num workers).
  struct Worker {
    mutable std::mutex mu;  ///< guards the queues of owned shards
    std::condition_variable cv;
    std::vector<size_t> shards;  ///< owned shard indices
    size_t cursor = 0;           ///< round-robin scan start (worker-only)
    std::thread thread;
  };

  ServingFrontend(const core::ShapeService* service,
                  const core::VariationPredictor* predictor,
                  FrontendOptions options);

  void WorkerLoop(size_t worker_index);
  /// Blocks for work on any of the worker's shards; picks the next
  /// non-empty shard round-robin and moves up to max_batch requests out.
  /// False when stopping and every owned queue is drained.
  bool PopBatch(Worker* worker, size_t* shard_index,
                std::vector<Pending>* batch);
  void ServeBatch(size_t shard_index, std::vector<Pending>* batch);
  /// Scores `batch` against one model epoch into `shapes`/`run_status`;
  /// false on batch-level incompatibility (nothing responded, next rung
  /// takes over). Responding is a separate step (RespondModelBatch) so
  /// the caller can settle breaker state *before* any promise resolves —
  /// a client that observes its future must also observe the breaker
  /// transition its request caused.
  bool PredictBatch(const ml::GbdtClassifier& model,
                    const std::vector<Pending>& batch,
                    std::vector<int>* shapes, std::vector<Status>* run_status);
  /// Resolves every request in `batch` from a PredictBatch result. Per-run
  /// featurization failures degrade that run to the prior rung.
  void RespondModelBatch(std::vector<Pending>* batch,
                         const std::vector<int>& shapes,
                         const std::vector<Status>& run_status,
                         DegradationLevel level);
  void RespondPrior(Pending* pending);
  void RespondShed(Pending* pending, ShedReason reason);
  void Respond(Pending* pending, PredictResponse response);

  const core::ShapeService* service_;
  const core::VariationPredictor* predictor_;
  FrontendOptions options_;

  CircuitBreaker breaker_;  ///< model health is global, not per shard

  std::vector<ShardQueue> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<size_t> shard_to_worker_;
  std::atomic<bool> stop_{false};

  // Metrics (obs/metrics.h): write-only, never consulted for results.
  obs::Counter* requests_total_;
  std::vector<obs::Counter*> served_total_;  ///< indexed by DegradationLevel
  std::vector<obs::Counter*> shed_total_;    ///< indexed by ShedReason
  obs::Histogram* latency_;     ///< submit -> response wall clock
  obs::Histogram* queue_wait_;  ///< submit -> dequeue wall clock
  obs::Histogram* batch_size_;
};

}  // namespace serve
}  // namespace rvar

#endif  // RVAR_SERVE_FRONTEND_H_
