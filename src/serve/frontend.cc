#include "serve/frontend.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace rvar {
namespace serve {

ServingFrontend::ServingFrontend(const core::ShapeService* service,
                                 const core::VariationPredictor* predictor,
                                 FrontendOptions options)
    : service_(service),
      predictor_(predictor),
      options_(std::move(options)),
      breaker_(options_.breaker) {
  obs::Registry& registry = obs::Registry::Default();
  requests_total_ = registry.GetCounter("serve_requests_total");
  served_total_.reserve(kNumDegradationLevels);
  for (int level = 0; level < kNumDegradationLevels; ++level) {
    served_total_.push_back(registry.GetCounter(
        "serve_served_total", "level",
        DegradationLevelName(static_cast<DegradationLevel>(level))));
  }
  shed_total_.reserve(kNumShedReasons);
  for (int reason = 0; reason < kNumShedReasons; ++reason) {
    shed_total_.push_back(
        registry.GetCounter("serve_shed_total", "reason",
                            ShedReasonName(static_cast<ShedReason>(reason))));
  }
  latency_ = registry.GetHistogram("serve_request_latency_seconds");
  queue_wait_ = registry.GetHistogram("serve_queue_wait_seconds");
  batch_size_ = registry.GetHistogram("serve_batch_size");

  // One bounded queue per service shard, each with its slice of the
  // aggregate admission budget, each owned by exactly one worker.
  const size_t num_shards = static_cast<size_t>(service_->num_shards());
  const size_t num_workers =
      std::min(static_cast<size_t>(options_.num_workers), num_shards);
  const AdmissionOptions slice =
      options_.admission.ShardSlice(static_cast<int>(num_shards));
  shards_ = std::vector<ShardQueue>(num_shards);
  shard_to_worker_.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_[s].admission = std::make_unique<AdmissionController>(slice);
    shards_[s].depth_gauge =
        registry.GetGauge("serve_queue_depth", "shard", StrCat(s));
    shard_to_worker_[s] = s % num_workers;
  }
  workers_.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (size_t s = 0; s < num_shards; ++s) {
    workers_[shard_to_worker_[s]]->shards.push_back(s);
  }
  for (size_t w = 0; w < num_workers; ++w) {
    workers_[w]->thread = std::thread([this, w] { WorkerLoop(w); });
  }
}

Result<std::unique_ptr<ServingFrontend>> ServingFrontend::Make(
    const core::ShapeService* service,
    const core::VariationPredictor* predictor, FrontendOptions options) {
  if (service == nullptr) {
    return Status::InvalidArgument("null shape service");
  }
  RVAR_RETURN_NOT_OK(AdmissionController::ValidateOptions(options.admission));
  // The per-shard slice must validate too (it does whenever the aggregate
  // does — checked here so a future slicing change cannot silently break
  // the invariant).
  RVAR_RETURN_NOT_OK(AdmissionController::ValidateOptions(
      options.admission.ShardSlice(service->num_shards())));
  RVAR_RETURN_NOT_OK(CircuitBreaker::ValidateOptions(options.breaker));
  if (options.max_batch < 1) {
    return Status::InvalidArgument(
        StrCat("max_batch must be >= 1, got ", options.max_batch));
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument(
        StrCat("num_workers must be >= 1, got ", options.num_workers));
  }
  if (options.batch_linger.count() < 0) {
    return Status::InvalidArgument("batch_linger must be >= 0");
  }
  if (options.default_deadline.count() <= 0) {
    return Status::InvalidArgument("default_deadline must be > 0");
  }
  return std::unique_ptr<ServingFrontend>(
      new ServingFrontend(service, predictor, std::move(options)));
}

ServingFrontend::~ServingFrontend() { Shutdown(); }

std::function<bool()> ServingFrontend::LifecycleHealthProbe(
    const core::ModelLifecycle* lifecycle) {
  RVAR_CHECK(lifecycle != nullptr);
  return [lifecycle] { return lifecycle->live_version() >= 0; };
}

std::future<PredictResponse> ServingFrontend::Submit(PredictRequest request) {
  const auto now = std::chrono::steady_clock::now();
  requests_total_->Increment();

  Pending pending;
  pending.submitted = now;
  std::future<PredictResponse> future = pending.promise.get_future();

  if (request.run == nullptr) {
    shed_total_[static_cast<size_t>(ShedReason::kInvalid)]->Increment();
    RespondShed(&pending, ShedReason::kInvalid);
    return future;
  }
  if (request.deadline == std::chrono::steady_clock::time_point{}) {
    request.deadline = now + options_.default_deadline;
  }
  pending.request = request;

  // Route by the service's own group hash, so a request lands on the
  // worker that owns the shard holding its tracker state and model
  // replica.
  const size_t shard_index = service_->ShardIndexFor(request.run->group_id);
  ShardQueue& shard = shards_[shard_index];
  Worker& worker = *workers_[shard_to_worker_[shard_index]];
  {
    std::unique_lock<std::mutex> lock(worker.mu);
    if (stop_.load(std::memory_order_relaxed)) {
      lock.unlock();
      shed_total_[static_cast<size_t>(ShedReason::kShutdown)]->Increment();
      RespondShed(&pending, ShedReason::kShutdown);
      return future;
    }
    // Admission under the owning worker's lock: the depth the decision
    // saw is the depth the enqueue extends, so watermarks are exact, not
    // racy — and the decision only ever consults this shard's queue.
    const ShedReason verdict =
        shard.admission->Admit(request.priority, shard.queue.size(), now);
    if (verdict != ShedReason::kNone) {
      lock.unlock();
      // The admission controller already counted this shed.
      RespondShed(&pending, verdict);
      return future;
    }
    shard.queue.push_back(std::move(pending));
    shard.depth_gauge->Set(static_cast<double>(shard.queue.size()));
  }
  worker.cv.notify_one();
  return future;
}

PredictResponse ServingFrontend::Predict(
    const sim::JobRun& run, Priority priority,
    std::chrono::steady_clock::duration budget) {
  PredictRequest request;
  request.run = &run;
  request.priority = priority;
  request.deadline = std::chrono::steady_clock::now() + budget;
  return Submit(request).get();
}

void ServingFrontend::Shutdown() {
  if (stop_.exchange(true)) return;
  // Lock each worker's mutex once so no submitter is mid-enqueue when the
  // wakeup lands (the classic lost-notify guard), then join.
  for (auto& worker : workers_) {
    { std::lock_guard<std::mutex> lock(worker->mu); }
    worker->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Anything still queued (workers shed on drain, but be exhaustive).
  for (auto& worker : workers_) {
    std::deque<Pending> leftover;
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      for (size_t s : worker->shards) {
        for (Pending& pending : shards_[s].queue) {
          leftover.push_back(std::move(pending));
        }
        shards_[s].queue.clear();
        shards_[s].depth_gauge->Set(0.0);
      }
    }
    for (Pending& pending : leftover) {
      shed_total_[static_cast<size_t>(ShedReason::kShutdown)]->Increment();
      RespondShed(&pending, ShedReason::kShutdown);
    }
  }
}

size_t ServingFrontend::queue_depth() const {
  size_t total = 0;
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    for (size_t s : worker->shards) total += shards_[s].queue.size();
  }
  return total;
}

size_t ServingFrontend::shard_queue_depth(size_t shard_index) const {
  RVAR_CHECK(shard_index < shards_.size());
  const Worker& worker = *workers_[shard_to_worker_[shard_index]];
  std::lock_guard<std::mutex> lock(worker.mu);
  return shards_[shard_index].queue.size();
}

BreakerState ServingFrontend::breaker_state() const {
  return breaker_.state();
}

void ServingFrontend::WorkerLoop(size_t worker_index) {
  Worker& worker = *workers_[worker_index];
  std::vector<Pending> batch;
  size_t shard_index = 0;
  while (PopBatch(&worker, &shard_index, &batch)) {
    ServeBatch(shard_index, &batch);
    batch.clear();
  }
}

bool ServingFrontend::PopBatch(Worker* worker, size_t* shard_index,
                               std::vector<Pending>* batch) {
  std::unique_lock<std::mutex> lock(worker->mu);
  const auto any_work = [this, worker] {
    if (stop_.load(std::memory_order_relaxed)) return true;
    for (size_t s : worker->shards) {
      if (!shards_[s].queue.empty()) return true;
    }
    return false;
  };
  worker->cv.wait(lock, any_work);

  // Round-robin across owned shards so a hot shard cannot starve its
  // siblings on a shared worker.
  const size_t owned = worker->shards.size();
  size_t picked = owned;
  for (size_t i = 0; i < owned; ++i) {
    const size_t candidate = worker->shards[(worker->cursor + i) % owned];
    if (!shards_[candidate].queue.empty()) {
      picked = (worker->cursor + i) % owned;
      break;
    }
  }
  if (picked == owned) return false;  // stopping and every queue drained
  worker->cursor = (picked + 1) % owned;
  const size_t s = worker->shards[picked];
  ShardQueue& shard = shards_[s];

  const size_t max_batch = static_cast<size_t>(options_.max_batch);
  if (!stop_.load(std::memory_order_relaxed) &&
      options_.batch_linger.count() > 0 && shard.queue.size() < max_batch) {
    // Linger briefly so light traffic still amortizes inference; under
    // overload the shard queue is already >= max_batch and this never
    // waits.
    const auto linger_until =
        std::chrono::steady_clock::now() + options_.batch_linger;
    worker->cv.wait_until(lock, linger_until, [this, &shard, max_batch] {
      return stop_.load(std::memory_order_relaxed) ||
             shard.queue.size() >= max_batch;
    });
  }
  const size_t take = std::min(shard.queue.size(), max_batch);
  batch->reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch->push_back(std::move(shard.queue.front()));
    shard.queue.pop_front();
  }
  shard.depth_gauge->Set(static_cast<double>(shard.queue.size()));
  *shard_index = s;
  return true;
}

void ServingFrontend::ServeBatch(size_t shard_index,
                                 std::vector<Pending>* batch) {
  obs::ScopedSpan span("serve/batch");
  batch_size_->Observe(static_cast<double>(batch->size()));
  const auto now = std::chrono::steady_clock::now();
  for (Pending& pending : *batch) {
    queue_wait_->Observe(
        std::chrono::duration<double>(now - pending.submitted).count());
  }

  const bool stopping = stop_.load(std::memory_order_relaxed);

  // Deadline pass: expired (or shutdown-drained) requests are shed with a
  // labeled response — never served late, never silently dropped.
  std::vector<Pending> live;
  live.reserve(batch->size());
  for (Pending& pending : *batch) {
    if (stopping) {
      shed_total_[static_cast<size_t>(ShedReason::kShutdown)]->Increment();
      RespondShed(&pending, ShedReason::kShutdown);
    } else if (now >= pending.request.deadline) {
      shed_total_[static_cast<size_t>(ShedReason::kDeadline)]->Increment();
      RespondShed(&pending, ShedReason::kDeadline);
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) return;

  ShardQueue& shard = shards_[shard_index];

  // Rung 1: this shard's replica of the live model epoch (the slot the
  // model lifecycle feeds through ShapeService::SwapModel). Unavailable
  // or probe-failed epochs count as breaker failures so recovery goes
  // through the half-open probe.
  std::shared_ptr<const ml::GbdtClassifier> live_model =
      service_->ModelSnapshotForShard(shard_index);
  const bool healthy =
      predictor_ != nullptr && live_model != nullptr &&
      (options_.health_probe == nullptr || options_.health_probe());
  std::vector<int> shapes;
  std::vector<Status> run_status;
  if (healthy) {
    if (breaker_.AllowRequest(now)) {
      if (PredictBatch(*live_model, live, &shapes, &run_status)) {
        // Settle breaker state and the stale pin before resolving any
        // promise: a client that sees its response must also see the
        // breaker transition its request caused.
        breaker_.RecordSuccess();
        // Pin per shard; only this worker thread touches shard.stale.
        shard.stale = std::move(live_model);
        RespondModelBatch(&live, shapes, run_status,
                          DegradationLevel::kFullModel);
        return;
      }
      breaker_.RecordFailure(now);
    }
  } else {
    breaker_.RecordFailure(now);
  }

  // Rung 2: this shard's pinned last-known-good epoch.
  if (predictor_ != nullptr && shard.stale != nullptr &&
      PredictBatch(*shard.stale, live, &shapes, &run_status)) {
    RespondModelBatch(&live, shapes, run_status,
                      DegradationLevel::kStaleModel);
    return;
  }

  // Rung 3: the sketch-reconstructed prior (global argmax for unknown
  // groups).
  for (Pending& pending : live) RespondPrior(&pending);
}

bool ServingFrontend::PredictBatch(const ml::GbdtClassifier& model,
                                   const std::vector<Pending>& batch,
                                   std::vector<int>* shapes,
                                   std::vector<Status>* run_status) {
  std::vector<const sim::JobRun*> runs;
  runs.reserve(batch.size());
  for (const Pending& pending : batch) runs.push_back(pending.request.run);
  // Batch-level incompatibility: false, the next rung serves everyone.
  return predictor_->PredictShapeBatchInto(model, runs, shapes, run_status)
      .ok();
}

void ServingFrontend::RespondModelBatch(std::vector<Pending>* batch,
                                        const std::vector<int>& shapes,
                                        const std::vector<Status>& run_status,
                                        DegradationLevel level) {
  for (size_t i = 0; i < batch->size(); ++i) {
    Pending& pending = (*batch)[i];
    if (run_status[i].ok()) {
      PredictResponse response;
      response.shape = shapes[i];
      response.level = level;
      Respond(&pending, response);
    } else {
      // A run the featurizer rejects still gets a degraded answer.
      RespondPrior(&pending);
    }
  }
}

void ServingFrontend::RespondPrior(Pending* pending) {
  PredictResponse response;
  // PriorShape scores the group's sketch-reconstructed counts against the
  // shared log theta table and answers the global-prior argmax for unknown
  // groups, so the answer is always a valid shape, labeled kPrior so the
  // caller sees a degraded — but real — answer.
  response.shape = service_->PriorShape(pending->request.run->group_id);
  response.level = DegradationLevel::kPrior;
  Respond(pending, response);
}

void ServingFrontend::RespondShed(Pending* pending, ShedReason reason) {
  PredictResponse response;
  response.shed = reason;
  response.shape = -1;
  Respond(pending, std::move(response));
}

void ServingFrontend::Respond(Pending* pending, PredictResponse response) {
  response.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pending->submitted)
          .count();
  if (response.served()) {
    served_total_[static_cast<size_t>(response.level)]->Increment();
  }
  latency_->Observe(response.latency_seconds);
  pending->promise.set_value(std::move(response));
}

}  // namespace serve
}  // namespace rvar
