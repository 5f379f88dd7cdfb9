// Serving front-end unit tests: token bucket and admission shed order
// under synthetic time, the circuit breaker state machine, option
// validation, and the degradation ladder's exact fallback order
// (full model -> pinned stale epoch -> library-prior posterior).

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "core/shape_service.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/frontend.h"
#include "sim/datasets.h"

namespace rvar {
namespace serve {
namespace {

using std::chrono::steady_clock;

steady_clock::time_point At(double seconds) {
  return steady_clock::time_point{} +
         std::chrono::duration_cast<steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

TEST(TokenBucketTest, RefillsAtRateUpToBurst) {
  TokenBucketOptions options;
  options.rate_per_second = 1.0;
  options.burst = 2.0;
  TokenBucket bucket(options);

  // Starts full: two tokens, then dry.
  EXPECT_TRUE(bucket.TryAcquire(At(10.0)));
  EXPECT_TRUE(bucket.TryAcquire(At(10.0)));
  EXPECT_FALSE(bucket.TryAcquire(At(10.0)));

  // Half a second refills half a token — still dry.
  EXPECT_FALSE(bucket.TryAcquire(At(10.5)));
  // A full second from the last refill point buys one token.
  EXPECT_TRUE(bucket.TryAcquire(At(11.5)));
  EXPECT_FALSE(bucket.TryAcquire(At(11.5)));

  // A long idle stretch caps at burst, not rate * elapsed.
  EXPECT_NEAR(bucket.AvailableAt(At(100.0)), 2.0, 1e-9);
  EXPECT_TRUE(bucket.TryAcquire(At(100.0)));
  EXPECT_TRUE(bucket.TryAcquire(At(100.0)));
  EXPECT_FALSE(bucket.TryAcquire(At(100.0)));

  // A stale timestamp refills nothing (and never goes negative).
  EXPECT_FALSE(bucket.TryAcquire(At(50.0)));
}

TEST(AdmissionTest, ValidateOptionsRejectsBadKnobs) {
  AdmissionOptions ok;
  EXPECT_TRUE(AdmissionController::ValidateOptions(ok).ok());

  AdmissionOptions bad = ok;
  bad.bucket.rate_per_second = 0.0;
  EXPECT_FALSE(AdmissionController::ValidateOptions(bad).ok());
  bad = ok;
  bad.bucket.burst = 0.5;
  EXPECT_FALSE(AdmissionController::ValidateOptions(bad).ok());
  bad = ok;
  bad.queue_capacity = 0;
  EXPECT_FALSE(AdmissionController::ValidateOptions(bad).ok());
  bad = ok;
  bad.best_effort_watermark = 10;
  bad.standard_watermark = 5;
  EXPECT_FALSE(AdmissionController::ValidateOptions(bad).ok());
  bad = ok;
  bad.standard_watermark = ok.queue_capacity + 1;
  EXPECT_FALSE(AdmissionController::ValidateOptions(bad).ok());
}

TEST(AdmissionTest, ShedsByTierBeforeTheQueueFills) {
  AdmissionOptions options;
  options.bucket.rate_per_second = 1000.0;
  options.bucket.burst = 1000.0;
  options.queue_capacity = 10;
  options.best_effort_watermark = 2;
  options.standard_watermark = 6;
  AdmissionController admission(options);

  // Under the watermarks everyone is admitted.
  EXPECT_EQ(admission.Admit(Priority::kBestEffort, 1, At(0.0)),
            ShedReason::kNone);
  EXPECT_EQ(admission.Admit(Priority::kStandard, 1, At(0.0)),
            ShedReason::kNone);
  EXPECT_EQ(admission.Admit(Priority::kInteractive, 1, At(0.0)),
            ShedReason::kNone);

  // Best-effort sheds first, standard later, interactive only at capacity.
  EXPECT_EQ(admission.Admit(Priority::kBestEffort, 2, At(0.0)),
            ShedReason::kWatermark);
  EXPECT_EQ(admission.Admit(Priority::kStandard, 2, At(0.0)),
            ShedReason::kNone);
  EXPECT_EQ(admission.Admit(Priority::kStandard, 6, At(0.0)),
            ShedReason::kWatermark);
  EXPECT_EQ(admission.Admit(Priority::kInteractive, 9, At(0.0)),
            ShedReason::kNone);
  EXPECT_EQ(admission.Admit(Priority::kInteractive, 10, At(0.0)),
            ShedReason::kQueueFull);
  EXPECT_EQ(admission.Admit(Priority::kBestEffort, 10, At(0.0)),
            ShedReason::kQueueFull);
}

TEST(AdmissionTest, TokenBucketCapsLowerTiersButNeverInteractive) {
  AdmissionOptions options;
  options.bucket.rate_per_second = 1.0;
  options.bucket.burst = 2.0;
  options.queue_capacity = 100;
  options.best_effort_watermark = 100;
  options.standard_watermark = 100;
  AdmissionController admission(options);

  EXPECT_EQ(admission.Admit(Priority::kStandard, 0, At(1.0)),
            ShedReason::kNone);
  EXPECT_EQ(admission.Admit(Priority::kBestEffort, 0, At(1.0)),
            ShedReason::kNone);
  EXPECT_EQ(admission.Admit(Priority::kStandard, 0, At(1.0)),
            ShedReason::kTokens);
  // Interactive traffic never pays tokens: a drained bucket is invisible.
  EXPECT_EQ(admission.Admit(Priority::kInteractive, 0, At(1.0)),
            ShedReason::kNone);
  // Refill restores the lower tiers.
  EXPECT_EQ(admission.Admit(Priority::kStandard, 0, At(2.5)),
            ShedReason::kNone);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndProbesClosed) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.cooldown_seconds = 1.0;
  options.close_threshold = 1;
  ASSERT_TRUE(CircuitBreaker::ValidateOptions(options).ok());
  CircuitBreaker breaker(options);

  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure(At(0.0));
  breaker.RecordFailure(At(0.1));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // A success resets the streak.
  breaker.RecordSuccess();
  breaker.RecordFailure(At(0.2));
  breaker.RecordFailure(At(0.3));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure(At(0.4));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  // Open fails fast until the cooldown elapses.
  EXPECT_FALSE(breaker.AllowRequest(At(0.9)));
  EXPECT_TRUE(breaker.AllowRequest(At(1.5)));  // the half-open probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // Only one probe at a time.
  EXPECT_FALSE(breaker.AllowRequest(At(1.5)));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, FailedProbeReopensWithFreshCooldown) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_seconds = 1.0;
  CircuitBreaker breaker(options);

  breaker.RecordFailure(At(0.0));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.AllowRequest(At(1.1)));
  breaker.RecordFailure(At(1.1));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // The cooldown restarted at the probe failure, not the original trip.
  EXPECT_FALSE(breaker.AllowRequest(At(1.9)));
  EXPECT_TRUE(breaker.AllowRequest(At(2.2)));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

// Shared trained predictor + shape service (expensive to build).
class FrontendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SuiteConfig config;
    config.num_groups = 40;
    config.d1_days = 3.0;
    config.d2_days = 1.5;
    config.d3_days = 0.5;
    config.d1_support = 12;
    config.seed = 311;
    auto suite = sim::BuildStudySuite(config);
    ASSERT_TRUE(suite.ok()) << suite.status().ToString();
    suite_ = new sim::StudySuite(std::move(*suite));

    core::PredictorConfig pc;
    pc.shape.num_clusters = 3;
    pc.shape.min_support = 12;
    pc.shape.kmeans.num_restarts = 3;
    pc.gbdt.num_rounds = 15;
    auto predictor = core::VariationPredictor::Train(*suite_, pc);
    ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
    predictor_ = predictor->release();
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete suite_;
    predictor_ = nullptr;
    suite_ = nullptr;
  }

  // A service over the predictor's library, with the predictor's model
  // published in the slot (the topology AttachShapeService produces).
  static std::unique_ptr<core::ShapeService> MakeService(bool with_model) {
    auto service = core::ShapeService::Make(&predictor_->shapes());
    EXPECT_TRUE(service.ok());
    if (with_model) (*service)->SwapModel(predictor_->ModelSnapshot());
    return std::move(*service);
  }

  static const sim::JobRun& SomeRun() {
    return suite_->d3.telemetry.runs().front();
  }

  static FrontendOptions FastOptions() {
    FrontendOptions options;
    options.max_batch = 8;
    options.batch_linger = std::chrono::microseconds(0);
    options.default_deadline = std::chrono::milliseconds(5000);
    options.breaker.failure_threshold = 1;
    options.breaker.cooldown_seconds = 0.01;
    return options;
  }

  static sim::StudySuite* suite_;
  static core::VariationPredictor* predictor_;
};

sim::StudySuite* FrontendTest::suite_ = nullptr;
core::VariationPredictor* FrontendTest::predictor_ = nullptr;

TEST_F(FrontendTest, MakeValidatesOptions) {
  auto service = MakeService(true);
  FrontendOptions bad = FastOptions();
  bad.max_batch = 0;
  EXPECT_FALSE(ServingFrontend::Make(service.get(), predictor_, bad).ok());
  bad = FastOptions();
  bad.num_workers = 0;
  EXPECT_FALSE(ServingFrontend::Make(service.get(), predictor_, bad).ok());
  bad = FastOptions();
  bad.default_deadline = std::chrono::milliseconds(0);
  EXPECT_FALSE(ServingFrontend::Make(service.get(), predictor_, bad).ok());
  bad = FastOptions();
  bad.admission.queue_capacity = 0;
  EXPECT_FALSE(ServingFrontend::Make(service.get(), predictor_, bad).ok());
  EXPECT_FALSE(
      ServingFrontend::Make(nullptr, predictor_, FastOptions()).ok());
}

TEST_F(FrontendTest, ServesFullModelMatchingDirectPrediction) {
  auto service = MakeService(true);
  auto frontend =
      ServingFrontend::Make(service.get(), predictor_, FastOptions());
  ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();

  const sim::JobRun& run = SomeRun();
  const PredictResponse response = (*frontend)->Predict(
      run, Priority::kStandard, std::chrono::seconds(10));
  ASSERT_TRUE(response.served()) << ShedReasonName(response.shed);
  EXPECT_EQ(response.level, DegradationLevel::kFullModel);
  auto direct = predictor_->PredictShape(run);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response.shape, *direct);
  EXPECT_GE(response.latency_seconds, 0.0);
  EXPECT_EQ((*frontend)->breaker_state(), BreakerState::kClosed);
}

// The satellite's exact-order assertion: the ladder degrades one rung at a
// time as the model supply is taken away, and never turns into an error.
TEST_F(FrontendTest, DegradationLadderFallsInExactOrder) {
  auto service = MakeService(true);
  // Give the prior rung something to answer with for this run's group.
  const sim::JobRun& run = SomeRun();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service->Observe(run.group_id, 1.0).ok());
  }

  auto frontend =
      ServingFrontend::Make(service.get(), predictor_, FastOptions());
  ASSERT_TRUE(frontend.ok());

  // Rung 1: live model serves at full fidelity (and pins the stale epoch).
  PredictResponse response = (*frontend)->Predict(
      run, Priority::kStandard, std::chrono::seconds(10));
  ASSERT_TRUE(response.served());
  ASSERT_EQ(response.level, DegradationLevel::kFullModel);
  const int full_shape = response.shape;

  // Quarantine the live model (null epoch published): rung 2 must answer
  // from the pinned stale epoch — same model bytes, so the same shape.
  service->SwapModel(nullptr);
  response = (*frontend)->Predict(run, Priority::kStandard,
                                  std::chrono::seconds(10));
  ASSERT_TRUE(response.served());
  ASSERT_EQ(response.level, DegradationLevel::kStaleModel);
  EXPECT_EQ(response.shape, full_shape);
  EXPECT_EQ((*frontend)->breaker_state(), BreakerState::kOpen);

  // Rung 3: a fresh front-end that never saw a model has no stale epoch to
  // pin, so the same outage degrades it all the way to the prior.
  auto cold = ServingFrontend::Make(service.get(), predictor_, FastOptions());
  ASSERT_TRUE(cold.ok());
  response = (*cold)->Predict(run, Priority::kStandard,
                              std::chrono::seconds(10));
  ASSERT_TRUE(response.served());
  EXPECT_EQ(response.level, DegradationLevel::kPrior);
  EXPECT_EQ(response.shape, service->PriorShape(run.group_id));
  EXPECT_GE(response.shape, 0);

  // Restoring the model heals the first front-end back to rung 1 through
  // the breaker's half-open probe.
  service->SwapModel(predictor_->ModelSnapshot());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  response = (*frontend)->Predict(run, Priority::kStandard,
                                  std::chrono::seconds(10));
  ASSERT_TRUE(response.served());
  EXPECT_EQ(response.level, DegradationLevel::kFullModel);
  EXPECT_EQ(response.shape, full_shape);
  EXPECT_EQ((*frontend)->breaker_state(), BreakerState::kClosed);
}

// Regression: the prior rung once emitted a -1 sentinel for
// never-observed groups as if it were a shape. A served response must
// always carry a real cluster — the library's global-prior argmax — and
// stay labeled kPrior (degraded).
TEST_F(FrontendTest, PriorRungAnswersUnknownGroupsWithGlobalPrior) {
  auto service = MakeService(false);
  auto frontend =
      ServingFrontend::Make(service.get(), /*predictor=*/nullptr,
                            FastOptions());
  ASSERT_TRUE(frontend.ok());
  sim::JobRun unknown = SomeRun();
  unknown.group_id = 999999;
  const int global_prior = service->library().GlobalPriorShape();
  ASSERT_EQ(service->PriorShape(unknown.group_id), global_prior);
  const PredictResponse response = (*frontend)->Predict(
      unknown, Priority::kStandard, std::chrono::seconds(10));
  ASSERT_TRUE(response.served());
  EXPECT_EQ(response.level, DegradationLevel::kPrior);
  EXPECT_EQ(response.shape, global_prior);
  EXPECT_GE(response.shape, 0);
  EXPECT_LT(response.shape, predictor_->shapes().num_clusters());
}

TEST(AdmissionTest, ShardSliceDividesTheBudgetAndStaysValid) {
  AdmissionOptions options;
  options.bucket.rate_per_second = 1000.0;
  options.bucket.burst = 40.0;
  options.queue_capacity = 100;
  options.best_effort_watermark = 25;
  options.standard_watermark = 75;

  // One shard: the slice is the original budget.
  AdmissionOptions whole = options.ShardSlice(1);
  EXPECT_EQ(whole.queue_capacity, options.queue_capacity);
  EXPECT_EQ(whole.standard_watermark, options.standard_watermark);
  EXPECT_DOUBLE_EQ(whole.bucket.rate_per_second,
                   options.bucket.rate_per_second);

  AdmissionOptions quarter = options.ShardSlice(4);
  EXPECT_TRUE(AdmissionController::ValidateOptions(quarter).ok());
  EXPECT_EQ(quarter.queue_capacity, 25u);
  EXPECT_EQ(quarter.best_effort_watermark, 7u);
  EXPECT_EQ(quarter.standard_watermark, 19u);
  EXPECT_DOUBLE_EQ(quarter.bucket.rate_per_second, 250.0);
  EXPECT_DOUBLE_EQ(quarter.bucket.burst, 10.0);

  // Degenerate budgets still slice into something valid: capacity never
  // reaches 0, burst never drops below one token, a 0 watermark stays 0.
  AdmissionOptions tiny;
  tiny.queue_capacity = 1;
  tiny.best_effort_watermark = 0;
  tiny.standard_watermark = 1;
  tiny.bucket.burst = 1.0;
  AdmissionOptions sliced = tiny.ShardSlice(16);
  EXPECT_TRUE(AdmissionController::ValidateOptions(sliced).ok());
  EXPECT_EQ(sliced.queue_capacity, 1u);
  EXPECT_EQ(sliced.best_effort_watermark, 0u);
  EXPECT_DOUBLE_EQ(sliced.bucket.burst, 1.0);
}

// Per-shard routing: a multi-shard service behind a multi-worker
// front-end must answer exactly what the predictor answers for runs
// landing on every shard, and the depth surfaces must agree.
TEST_F(FrontendTest, ShardRoutedQueuesServeEveryShardCorrectly) {
  core::ShapeService::Options sopts;
  sopts.num_shards = 8;
  auto service = core::ShapeService::Make(&predictor_->shapes(), sopts);
  ASSERT_TRUE(service.ok());
  (*service)->SwapModel(predictor_->ModelSnapshot());

  FrontendOptions fopts = FastOptions();
  fopts.num_workers = 3;  // shards split unevenly across workers
  auto frontend =
      ServingFrontend::Make(service->get(), predictor_, fopts);
  ASSERT_TRUE(frontend.ok());
  EXPECT_EQ((*frontend)->num_shards(), 8u);

  const auto& runs = suite_->d3.telemetry.runs();
  std::vector<bool> shard_seen(8, false);
  size_t served = 0;
  for (size_t i = 0; i < runs.size() && served < 64; ++i) {
    const sim::JobRun& run = runs[i];
    shard_seen[(*service)->ShardIndexFor(run.group_id)] = true;
    const PredictResponse response = (*frontend)->Predict(
        run, Priority::kStandard, std::chrono::seconds(10));
    ASSERT_TRUE(response.served()) << ShedReasonName(response.shed);
    EXPECT_EQ(response.level, DegradationLevel::kFullModel);
    auto direct = predictor_->PredictShape(run);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(response.shape, *direct) << "run " << i;
    ++served;
  }
  // The traffic genuinely spread over multiple shards (the group hash
  // would have to be pathological to pin 40 groups onto one shard).
  int hit = 0;
  for (bool seen : shard_seen) hit += seen ? 1 : 0;
  EXPECT_GT(hit, 1);

  EXPECT_EQ((*frontend)->queue_depth(), 0u);
  for (size_t s = 0; s < (*frontend)->num_shards(); ++s) {
    EXPECT_EQ((*frontend)->shard_queue_depth(s), 0u);
  }
}

// Differential oracle under concurrent load: four client threads submit
// every D3 run without waiting, so shard queues back up past 32 requests
// and the workers score batches of up to 64 inline through
// PredictShapeBatchInto, while the oracle, PredictShapeBatch, fans
// 256-run chunks of the same routine over the pool. Every full-model
// answer must equal the oracle's for the epoch the service publishes.
TEST_F(FrontendTest, ConcurrentFullModelAnswersMatchBatchOracle) {
  core::ShapeService::Options sopts;
  sopts.num_shards = 8;
  auto service = core::ShapeService::Make(&predictor_->shapes(), sopts);
  ASSERT_TRUE(service.ok());
  (*service)->SwapModel(predictor_->ModelSnapshot());

  const std::vector<sim::JobRun>& runs = suite_->d3.telemetry.runs();
  std::vector<const sim::JobRun*> batch;
  for (const sim::JobRun& run : runs) batch.push_back(&run);
  auto oracle = predictor_->PredictShapeBatch(batch);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  constexpr size_t kClients = 4;
  FrontendOptions fopts = FastOptions();
  fopts.num_workers = 2;
  fopts.max_batch = 64;
  // Long enough that each shard's first batch waits for a full 64.
  fopts.batch_linger = std::chrono::milliseconds(250);
  fopts.default_deadline = std::chrono::milliseconds(60000);
  // Admit everything, even if every request hashes to one shard's slice:
  // the test is about answers, not shedding.
  fopts.admission.queue_capacity = 8 * kClients * runs.size();
  fopts.admission.best_effort_watermark = fopts.admission.queue_capacity;
  fopts.admission.standard_watermark = fopts.admission.queue_capacity;
  fopts.admission.bucket.rate_per_second = 1e9;
  fopts.admission.bucket.burst = 1e9;
  auto frontend = ServingFrontend::Make(service->get(), predictor_, fopts);
  ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();

  // Batches of more than 32 requests, counted from the histogram buckets
  // whose lower edge is at least 32.
  obs::Histogram* batch_sizes =
      obs::Registry::Default().GetHistogram("serve_batch_size");
  const auto large_batches = [batch_sizes] {
    const std::vector<int64_t> counts = batch_sizes->BucketCounts();
    int64_t large = 0;
    for (size_t i = 1; i < counts.size(); ++i) {
      if (batch_sizes->BucketUpperBound(static_cast<int>(i) - 1) >= 32.0) {
        large += counts[i];
      }
    }
    return large;
  };
  const int64_t large_before = large_batches();

  std::vector<std::vector<std::future<PredictResponse>>> futures(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      futures[c].reserve(runs.size());
      for (const sim::JobRun& run : runs) {
        PredictRequest request;
        request.run = &run;
        futures[c].push_back((*frontend)->Submit(request));
      }
    });
  }
  for (std::thread& client : clients) client.join();

  size_t full = 0;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < runs.size(); ++i) {
      const PredictResponse response = futures[c][i].get();
      ASSERT_TRUE(response.served()) << ShedReasonName(response.shed);
      if (response.level != DegradationLevel::kFullModel) continue;
      ++full;
      EXPECT_EQ(response.shape, (*oracle)[i])
          << "client " << c << " run " << i;
    }
  }
  EXPECT_EQ(full, kClients * runs.size());
  EXPECT_GT(large_batches(), large_before);
}

TEST_F(FrontendTest, ExpiredDeadlineIsShedNotServedLate) {
  auto service = MakeService(true);
  auto frontend =
      ServingFrontend::Make(service.get(), predictor_, FastOptions());
  ASSERT_TRUE(frontend.ok());

  PredictRequest request;
  const sim::JobRun& run = SomeRun();
  request.run = &run;
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const PredictResponse response = (*frontend)->Submit(request).get();
  EXPECT_FALSE(response.served());
  EXPECT_EQ(response.shed, ShedReason::kDeadline);
  EXPECT_EQ(response.shape, -1);
}

TEST_F(FrontendTest, InvalidAndPostShutdownRequestsAreLabeled) {
  auto service = MakeService(true);
  auto frontend =
      ServingFrontend::Make(service.get(), predictor_, FastOptions());
  ASSERT_TRUE(frontend.ok());

  PredictRequest null_run;
  EXPECT_EQ((*frontend)->Submit(null_run).get().shed, ShedReason::kInvalid);

  (*frontend)->Shutdown();
  PredictRequest after;
  const sim::JobRun& run = SomeRun();
  after.run = &run;
  EXPECT_EQ((*frontend)->Submit(after).get().shed, ShedReason::kShutdown);
  (*frontend)->Shutdown();  // idempotent
}

}  // namespace
}  // namespace serve
}  // namespace rvar
