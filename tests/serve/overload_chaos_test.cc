// Overload chaos: the serving front-end is driven through a 10x open-loop
// spike while the live model is force-quarantined out from under it, then
// through recovery. Proves the ISSUE's SLO contract: every request
// resolves (served or shed with a labeled reason — never an error, never
// an unbounded block), degraded answers are labeled with their ladder
// rung, and steady-state latency recovers after the spike. Labeled both
// `chaos` (ASan/UBSan CI job) and `concurrency` (TSan CI job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model_lifecycle.h"
#include "core/predictor.h"
#include "core/shape_service.h"
#include "ml/dataset.h"
#include "serve/frontend.h"
#include "sim/datasets.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace serve {
namespace {

using std::chrono::steady_clock;

class OverloadChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SuiteConfig config;
    config.num_groups = 40;
    config.d1_days = 3.0;
    config.d2_days = 1.5;
    config.d3_days = 0.5;
    config.d1_support = 12;
    config.seed = 977;
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

  // A lifecycle-compatible retrain window: the predictor's own kept
  // features with its predicted shapes as labels. Every class 0..K-1 is
  // guaranteed present (rows are re-labeled round-robin at the tail), so
  // the trained candidate's class count always matches the shape library.
  ml::Dataset Window(uint64_t salt) const {
    const std::vector<size_t>& kept = predictor_->kept_features();
    ml::Dataset window;
    for (size_t f = 0; f < kept.size(); ++f) {
      window.feature_names.push_back(
          predictor_->featurizer().FeatureNames()[kept[f]]);
    }
    const int k = predictor_->shapes().num_clusters();
    const auto& runs = suite_->d2.telemetry.runs();
    int forced = 0;
    for (size_t i = salt % 7; i < runs.size(); i += 3) {
      auto full = predictor_->featurizer().FeaturesFor(runs[i]);
      if (!full.ok()) continue;
      auto shape = predictor_->PredictShape(runs[i]);
      if (!shape.ok()) continue;
      std::vector<double> projected;
      projected.reserve(kept.size());
      for (size_t f : kept) projected.push_back((*full)[f]);
      window.x.push_back(std::move(projected));
      // Re-label the first 3*k rows round-robin so every class appears.
      window.y.push_back(forced < 3 * k ? forced % k : *shape);
      ++forced;
      window.target.push_back(0.0);
    }
    return window;
  }

  static sim::StudySuite* suite_;
  static core::VariationPredictor* predictor_;
  UniqueTempDir temp_;
  const std::string dir_ = temp_.str();
};

sim::StudySuite* OverloadChaosTest::suite_ = nullptr;
core::VariationPredictor* OverloadChaosTest::predictor_ = nullptr;

TEST_F(OverloadChaosTest, SpikeWithForcedQuarantineMeetsSlos) {
  // --- Topology: lifecycle -> shape service -> front-end ---------------
  auto service = core::ShapeService::Make(&predictor_->shapes());
  ASSERT_TRUE(service.ok());
  const auto& runs = suite_->d3.telemetry.runs();
  ASSERT_GE(runs.size(), 64u);
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE((*service)->Observe(runs[i].group_id, 1.0).ok());
  }

  core::ModelLifecycleOptions lopts;
  lopts.dir = dir_;
  lopts.gbdt.num_rounds = 8;
  lopts.gbdt.max_leaves = 8;
  lopts.seed = 29;
  auto lifecycle = core::ModelLifecycle::Open(lopts);
  ASSERT_TRUE(lifecycle.ok()) << lifecycle.status().ToString();
  (*lifecycle)->AttachShapeService(service->get());
  const ml::Dataset window = Window(1);
  ASSERT_GE(window.NumRows(), 30u);
  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(window, 0, 100).ok());
  ASSERT_EQ((*lifecycle)->live_version(), 1);
  ASSERT_NE((*service)->ModelSnapshot(), nullptr);

  FrontendOptions fopts;
  fopts.max_batch = 32;
  fopts.batch_linger = std::chrono::microseconds(0);
  fopts.default_deadline = std::chrono::milliseconds(2000);
  fopts.num_workers = 2;
  fopts.admission.queue_capacity = 256;
  fopts.admission.best_effort_watermark = 64;
  fopts.admission.standard_watermark = 192;
  fopts.admission.bucket.rate_per_second = 200000.0;
  fopts.admission.bucket.burst = 4000.0;
  fopts.breaker.failure_threshold = 2;
  fopts.breaker.cooldown_seconds = 0.02;
  fopts.health_probe = ServingFrontend::LifecycleHealthProbe(lifecycle->get());
  auto frontend =
      ServingFrontend::Make(service->get(), predictor_, fopts);
  ASSERT_TRUE(frontend.ok()) << frontend.status().ToString();

  // --- Phase A: closed-loop steady state -------------------------------
  std::vector<double> steady_latency;
  for (int i = 0; i < 200; ++i) {
    const PredictResponse response = (*frontend)->Predict(
        runs[static_cast<size_t>(i) % runs.size()], Priority::kStandard,
        std::chrono::seconds(5));
    ASSERT_TRUE(response.served()) << ShedReasonName(response.shed);
    EXPECT_EQ(response.level, DegradationLevel::kFullModel);
    steady_latency.push_back(response.latency_seconds);
  }
  EXPECT_EQ((*frontend)->breaker_state(), BreakerState::kClosed);

  // --- Phase B: 10x open-loop spike + forced quarantine mid-spike ------
  constexpr int kSpikeThreads = 8;
  constexpr int kPerThread = 400;
  const auto spike_budget = std::chrono::milliseconds(50);
  std::vector<std::vector<std::future<PredictResponse>>> futures(
      kSpikeThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> generators;
  for (int t = 0; t < kSpikeThreads; ++t) {
    futures[t].reserve(kPerThread);
    generators.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        PredictRequest request;
        request.run = &runs[static_cast<size_t>(t * kPerThread + i) %
                            runs.size()];
        request.priority = static_cast<Priority>((t + i) % kNumPriorities);
        request.deadline = steady_clock::now() + spike_budget;
        futures[t].push_back((*frontend)->Submit(request));
      }
    });
  }
  // Kill the live model, then release the spike against the quarantined
  // lifecycle. v1 has no retired fallback, so serving drops to nothing:
  // live_version() == -1, null epoch mirrored into the service, the
  // breaker trips on the first post-quarantine batches, and the ladder
  // answers the whole spike from the pinned stale epoch (or the prior).
  ASSERT_TRUE((*lifecycle)->QuarantineLive("chaos: operator kill switch").ok());
  EXPECT_EQ((*lifecycle)->live_version(), -1);
  EXPECT_EQ((*service)->ModelSnapshot(), nullptr);
  go.store(true, std::memory_order_release);
  for (std::thread& g : generators) g.join();

  int served = 0, shed = 0, degraded = 0;
  for (auto& lane : futures) {
    for (auto& future : lane) {
      // The SLO: nothing blocks unboundedly. Every future must resolve
      // well inside this generous sanitizer-tolerant bound.
      ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "a request blocked past its deadline";
      const PredictResponse response = future.get();
      if (response.served()) {
        ++served;
        if (response.level != DegradationLevel::kFullModel) ++degraded;
      } else {
        // Shed responses are labeled with a real reason and carry no shape.
        EXPECT_NE(response.shed, ShedReason::kNone);
        EXPECT_EQ(response.shape, -1);
        ++shed;
      }
      // Nothing is served (or shed) long after its budget: queue wait is
      // bounded by the deadline pass, inference by the batch size. The
      // slack absorbs sanitizer scheduling noise.
      EXPECT_LE(response.latency_seconds, 10.0);
    }
  }
  EXPECT_EQ(served + shed, kSpikeThreads * kPerThread);
  // A 10x spike against a 256-deep queue must shed, and with the model
  // quarantined EVERY served answer is a labeled degraded one — the full
  // model is gone, yet nothing errored.
  EXPECT_GT(shed, 0);
  EXPECT_GT(served, 0);
  EXPECT_EQ(degraded, served);

  // Post-quarantine closed-loop traffic serves from the stale rung — the
  // outage degrades answers, it never errors them.
  const PredictResponse stale = (*frontend)->Predict(
      runs[0], Priority::kInteractive, std::chrono::seconds(5));
  ASSERT_TRUE(stale.served()) << ShedReasonName(stale.shed);
  EXPECT_EQ(stale.level, DegradationLevel::kStaleModel);

  // The quarantined version is a tombstone on disk with the reason.
  auto manifest = (*lifecycle)->registry().Manifest(1);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->state, io::ModelState::kQuarantined);
  EXPECT_NE(manifest->reason.find("chaos"), std::string::npos);

  // --- Phase C: recovery ----------------------------------------------
  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(Window(2), 100, 200).ok());
  EXPECT_GE((*lifecycle)->live_version(), 2);
  ASSERT_NE((*service)->ModelSnapshot(), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<double> recovered_latency;
  int full_model_tail = 0;
  for (int i = 0; i < 100; ++i) {
    const PredictResponse response = (*frontend)->Predict(
        runs[static_cast<size_t>(i) % runs.size()], Priority::kStandard,
        std::chrono::seconds(5));
    ASSERT_TRUE(response.served()) << ShedReasonName(response.shed);
    recovered_latency.push_back(response.latency_seconds);
    if (i >= 50 && response.level == DegradationLevel::kFullModel) {
      ++full_model_tail;
    }
  }
  // The breaker re-closed through its half-open probe and the tail of the
  // recovery traffic is back on the full model.
  EXPECT_EQ((*frontend)->breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(full_model_tail, 50);

  // Steady-state p99 recovers: the post-spike tail is the same order as
  // the pre-spike tail, far under the spike's deadline chaos.
  auto p99 = [](std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return xs[static_cast<size_t>(0.99 * static_cast<double>(xs.size() - 1))];
  };
  EXPECT_LT(p99(recovered_latency), 1.0);
  EXPECT_LT(p99(recovered_latency), 50.0 * std::max(p99(steady_latency),
                                                    0.005));
}

// The admission controller and deadline pass alone (no quarantine): an
// open-loop burst against a tiny queue sheds by tier, and interactive
// traffic survives at a higher rate than best-effort.
TEST_F(OverloadChaosTest, BurstShedsLowerTiersFirst) {
  auto service = core::ShapeService::Make(&predictor_->shapes());
  ASSERT_TRUE(service.ok());
  (*service)->SwapModel(predictor_->ModelSnapshot());

  FrontendOptions fopts;
  fopts.max_batch = 16;
  fopts.batch_linger = std::chrono::microseconds(500);
  fopts.default_deadline = std::chrono::milliseconds(2000);
  fopts.num_workers = 1;
  fopts.admission.queue_capacity = 64;
  fopts.admission.best_effort_watermark = 8;
  fopts.admission.standard_watermark = 32;
  auto frontend =
      ServingFrontend::Make(service->get(), predictor_, fopts);
  ASSERT_TRUE(frontend.ok());

  const auto& runs = suite_->d3.telemetry.runs();
  constexpr int kPerTier = 600;
  std::vector<std::future<PredictResponse>> interactive, best_effort;
  for (int i = 0; i < kPerTier; ++i) {
    PredictRequest request;
    request.run = &runs[static_cast<size_t>(i) % runs.size()];
    request.priority = Priority::kBestEffort;
    best_effort.push_back((*frontend)->Submit(request));
    request.priority = Priority::kInteractive;
    interactive.push_back((*frontend)->Submit(request));
  }
  int interactive_served = 0, best_effort_served = 0;
  int watermark_sheds = 0;
  for (auto& f : interactive) {
    const PredictResponse r = f.get();
    interactive_served += r.served();
    EXPECT_NE(r.shed, ShedReason::kWatermark)
        << "interactive traffic has no watermark";
  }
  for (auto& f : best_effort) {
    const PredictResponse r = f.get();
    best_effort_served += r.served();
    watermark_sheds += (r.shed == ShedReason::kWatermark);
  }
  // The burst overwhelms the queue: best-effort pays first and most.
  EXPECT_GT(watermark_sheds, 0);
  EXPECT_GT(interactive_served, best_effort_served);
}

}  // namespace
}  // namespace serve
}  // namespace rvar
