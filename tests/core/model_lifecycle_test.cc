// ModelLifecycle tests: option validation, the train → gate → swap loop,
// warm-start provenance, gate rejection semantics, rollback, the
// background retrainer, ShapeService mirroring, and the determinism
// contract (same window + seed ⇒ byte-identical candidate at any thread
// count).

#include "core/model_lifecycle.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "io/model_registry.h"
#include "io/serialize.h"
#include "ml/dataset.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace core {
namespace {

// Two-class blobs whose distribution drifts with `phase`, so consecutive
// retrain windows differ but stay learnable.
ml::Dataset Window(int phase, int n_per_class, uint64_t seed) {
  ml::Dataset d;
  d.feature_names = {"x0", "x1"};
  Rng rng(seed);
  const double shift = 0.2 * phase;
  const double centers[2][2] = {{0.0 + shift, 0.0}, {3.0 + shift, 3.0}};
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < n_per_class; ++i) {
      d.x.push_back({rng.Normal(centers[c][0], 0.6),
                     rng.Normal(centers[c][1], 0.6)});
      d.y.push_back(c);
      d.target.push_back(0.0);
    }
  }
  return d;
}

class ModelLifecycleTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreads(0); }

  ModelLifecycleOptions Options() const {
    ModelLifecycleOptions options;
    options.dir = dir_;
    options.gbdt.num_rounds = 6;
    options.gbdt.max_leaves = 4;
    options.seed = 21;
    return options;
  }

  UniqueTempDir temp_;
  const std::string dir_ = temp_.str();
};

TEST_F(ModelLifecycleTest, OpenRejectsBadOptions) {
  {
    ModelLifecycleOptions options = Options();
    options.dir.clear();
    EXPECT_FALSE(ModelLifecycle::Open(options).ok());
  }
  for (double fraction : {0.0, -0.1, 1.0, 1.5}) {
    ModelLifecycleOptions options = Options();
    options.holdout_fraction = fraction;
    EXPECT_FALSE(ModelLifecycle::Open(options).ok()) << fraction;
  }
  {
    ModelLifecycleOptions options = Options();
    options.max_holdout_logloss =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(ModelLifecycle::Open(options).ok());
  }
  for (double agreement : {-0.1, 1.1}) {
    ModelLifecycleOptions options = Options();
    options.min_agreement = agreement;
    EXPECT_FALSE(ModelLifecycle::Open(options).ok()) << agreement;
  }
  {
    ModelLifecycleOptions options = Options();
    options.keep_retired = -1;
    EXPECT_FALSE(ModelLifecycle::Open(options).ok());
  }
}

TEST_F(ModelLifecycleTest, FirstCycleTrainsGatesAndServes) {
  auto lifecycle = ModelLifecycle::Open(Options());
  ASSERT_TRUE(lifecycle.ok()) << lifecycle.status().ToString();
  EXPECT_EQ((*lifecycle)->live_version(), -1);
  EXPECT_EQ((*lifecycle)->LiveModel(), nullptr);

  const ml::Dataset window = Window(0, 60, 5);
  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(window, 0, 120).ok());
  EXPECT_EQ((*lifecycle)->live_version(), 1);
  ASSERT_NE((*lifecycle)->LiveModel(), nullptr);
  EXPECT_EQ((*lifecycle)->LiveModel()->num_classes(), 2);

  auto manifest = (*lifecycle)->registry().Manifest(1);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->state, io::ModelState::kActive);
  EXPECT_EQ(manifest->parent_version, -1);
  EXPECT_EQ(manifest->window_begin, 0u);
  EXPECT_EQ(manifest->window_end, 120u);
  EXPECT_EQ(manifest->num_rows, window.NumRows());
  EXPECT_GT(manifest->holdout_logloss, 0.0);
  EXPECT_DOUBLE_EQ(manifest->agreement, 1.0);  // no live model to disagree
}

TEST_F(ModelLifecycleTest, SecondCycleWarmStartsFromLive) {
  auto lifecycle = ModelLifecycle::Open(Options());
  ASSERT_TRUE(lifecycle.ok());
  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());
  ASSERT_TRUE(
      (*lifecycle)->RetrainAndSwap(Window(1, 60, 6), 120, 240).ok());

  EXPECT_EQ((*lifecycle)->live_version(), 2);
  auto m2 = (*lifecycle)->registry().Manifest(2);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->state, io::ModelState::kActive);
  EXPECT_EQ(m2->parent_version, 1);
  EXPECT_GE(m2->agreement, 0.0);
  EXPECT_LE(m2->agreement, 1.0);
  EXPECT_EQ((*lifecycle)->registry().Manifest(1)->state,
            io::ModelState::kRetired);
}

TEST_F(ModelLifecycleTest, GateRejectionLeavesServingUntouched) {
  ModelLifecycleOptions options = Options();
  // An impossible regression budget: every candidate after the first must
  // beat the live model by 1000 nats of logloss.
  options.max_logloss_regression = -1000.0;
  auto lifecycle = ModelLifecycle::Open(options);
  ASSERT_TRUE(lifecycle.ok());
  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());
  const auto live_before = (*lifecycle)->LiveModel();

  const Status rejected =
      (*lifecycle)->RetrainAndSwap(Window(1, 60, 6), 120, 240);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.message().find("logloss-regression"),
            std::string::npos)
      << rejected.ToString();

  // Serving never moved; the candidate is quarantined with the gate as
  // its reason and keeps its artifact for forensics.
  EXPECT_EQ((*lifecycle)->live_version(), 1);
  EXPECT_EQ((*lifecycle)->LiveModel(), live_before);
  auto m2 = (*lifecycle)->registry().Manifest(2);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->state, io::ModelState::kQuarantined);
  EXPECT_EQ(m2->reason.rfind("logloss-regression:", 0), 0u) << m2->reason;
  EXPECT_TRUE(
      std::filesystem::exists((*lifecycle)->registry().ModelPath(2)));

  // The quarantined version never serves again, but retraining continues
  // with a fresh id.
  EXPECT_FALSE((*lifecycle)->Rollback(2).ok());
  EXPECT_EQ((*lifecycle)->registry().next_version(), 3);
}

TEST_F(ModelLifecycleTest, RollbackReactivatesRetainedVersion) {
  auto lifecycle = ModelLifecycle::Open(Options());
  ASSERT_TRUE(lifecycle.ok());
  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());
  ASSERT_TRUE(
      (*lifecycle)->RetrainAndSwap(Window(1, 60, 6), 120, 240).ok());
  ASSERT_EQ((*lifecycle)->live_version(), 2);

  ASSERT_TRUE((*lifecycle)->Rollback(1).ok());
  EXPECT_EQ((*lifecycle)->live_version(), 1);
  ASSERT_NE((*lifecycle)->LiveModel(), nullptr);
  EXPECT_EQ((*lifecycle)->registry().Manifest(1)->state,
            io::ModelState::kActive);
  // The displaced version is retired, not quarantined: rolling forward
  // again stays possible.
  EXPECT_EQ((*lifecycle)->registry().Manifest(2)->state,
            io::ModelState::kRetired);
  ASSERT_TRUE((*lifecycle)->Rollback(2).ok());
  EXPECT_EQ((*lifecycle)->live_version(), 2);

  // Rolling back to the live version is a no-op; unknown versions fail.
  EXPECT_TRUE((*lifecycle)->Rollback(2).ok());
  EXPECT_FALSE((*lifecycle)->Rollback(99).ok());
}

TEST_F(ModelLifecycleTest, QuarantineLiveFallsBackToNewestRetired) {
  auto lifecycle = ModelLifecycle::Open(Options());
  ASSERT_TRUE(lifecycle.ok());
  // Nothing live yet: the kill switch has nothing to kill.
  EXPECT_TRUE((*lifecycle)->QuarantineLive("nothing").IsFailedPrecondition());

  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());
  ASSERT_TRUE(
      (*lifecycle)->RetrainAndSwap(Window(1, 60, 6), 120, 240).ok());
  ASSERT_EQ((*lifecycle)->live_version(), 2);

  // v1 is retired, so killing v2 rolls serving back one epoch.
  ASSERT_TRUE((*lifecycle)->QuarantineLive("operator: bad output").ok());
  EXPECT_EQ((*lifecycle)->live_version(), 1);
  ASSERT_NE((*lifecycle)->LiveModel(), nullptr);
  EXPECT_EQ((*lifecycle)->registry().Manifest(2)->state,
            io::ModelState::kQuarantined);
  EXPECT_NE((*lifecycle)->registry().Manifest(2)->reason.find("bad output"),
            std::string::npos);
  EXPECT_EQ((*lifecycle)->registry().Manifest(1)->state,
            io::ModelState::kActive);
  // The quarantined version can never serve again.
  EXPECT_FALSE((*lifecycle)->Rollback(2).ok());
}

TEST_F(ModelLifecycleTest, QuarantineLiveWithNoFallbackClearsServing) {
  auto lifecycle = ModelLifecycle::Open(Options());
  ASSERT_TRUE(lifecycle.ok());
  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());
  ASSERT_EQ((*lifecycle)->live_version(), 1);

  // The only version on disk is the live one: the kill switch must still
  // work, leaving nothing serving rather than a sick model.
  ASSERT_TRUE((*lifecycle)->QuarantineLive("chaos").ok());
  EXPECT_EQ((*lifecycle)->live_version(), -1);
  EXPECT_EQ((*lifecycle)->LiveModel(), nullptr);
  EXPECT_EQ((*lifecycle)->registry().active_version(), -1);
  EXPECT_EQ((*lifecycle)->registry().Manifest(1)->state,
            io::ModelState::kQuarantined);
  // Nothing live -> a second kill is refused.
  EXPECT_TRUE((*lifecycle)->QuarantineLive("again").IsFailedPrecondition());

  // The cleared state survives a crash-and-reopen, and retraining resumes
  // with a fresh id.
  auto reopened = ModelLifecycle::Open(Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_version(), -1);
  EXPECT_EQ((*reopened)->LiveModel(), nullptr);
  ASSERT_TRUE((*reopened)->RetrainAndSwap(Window(1, 60, 6), 120, 240).ok());
  EXPECT_EQ((*reopened)->live_version(), 2);
}

TEST_F(ModelLifecycleTest, CandidateBytesIdenticalAtAnyThreadCount) {
  const ml::Dataset window = Window(0, 80, 9);
  std::vector<std::string> images;
  for (int threads : {1, 8}) {
    SetParallelThreads(threads);
    const std::string dir = temp_.File(StrCat("t", threads));
    std::filesystem::remove_all(dir);
    ModelLifecycleOptions options = Options();
    options.dir = dir;
    auto lifecycle = ModelLifecycle::Open(options);
    ASSERT_TRUE(lifecycle.ok());
    auto version = (*lifecycle)->TrainCandidate(window, 0, 160);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    auto bytes = (*lifecycle)->registry().LoadModelBytes(*version);
    ASSERT_TRUE(bytes.ok());
    images.push_back(*std::move(bytes));
    std::filesystem::remove_all(dir);
  }
  SetParallelThreads(0);
  ASSERT_EQ(images.size(), 2u);
  EXPECT_EQ(images[0], images[1]) << "candidate bytes depend on threads";
}

TEST_F(ModelLifecycleTest, WarmStartedCandidateIdenticalAtAnyThreadCount) {
  const ml::Dataset first = Window(0, 60, 5);
  const ml::Dataset second = Window(1, 60, 6);
  std::vector<std::string> images;
  for (int threads : {1, 8}) {
    SetParallelThreads(threads);
    const std::string dir = temp_.File(StrCat("t", threads));
    std::filesystem::remove_all(dir);
    ModelLifecycleOptions options = Options();
    options.dir = dir;
    auto lifecycle = ModelLifecycle::Open(options);
    ASSERT_TRUE(lifecycle.ok());
    ASSERT_TRUE((*lifecycle)->RetrainAndSwap(first, 0, 120).ok());
    auto version = (*lifecycle)->TrainCandidate(second, 120, 240);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    auto bytes = (*lifecycle)->registry().LoadModelBytes(*version);
    ASSERT_TRUE(bytes.ok());
    images.push_back(*std::move(bytes));
    std::filesystem::remove_all(dir);
  }
  SetParallelThreads(0);
  ASSERT_EQ(images.size(), 2u);
  EXPECT_EQ(images[0], images[1]);
}

TEST_F(ModelLifecycleTest, BackgroundRetrainerRunsCyclesOffThread) {
  auto lifecycle = ModelLifecycle::Open(Options());
  ASSERT_TRUE(lifecycle.ok());
  BackgroundRetrainer retrainer(lifecycle->get());

  ASSERT_TRUE(retrainer.StartCycle(Window(0, 60, 5), 0, 120));
  Status first = retrainer.Wait();
  ASSERT_TRUE(first.ok()) << first.ToString();
  EXPECT_FALSE(retrainer.busy());
  EXPECT_EQ((*lifecycle)->live_version(), 1);

  // The serving path stays readable while the next cycle runs.
  ASSERT_TRUE(retrainer.StartCycle(Window(1, 60, 6), 120, 240));
  while (retrainer.busy()) {
    ASSERT_NE((*lifecycle)->LiveModel(), nullptr);
  }
  ASSERT_TRUE(retrainer.Wait().ok());
  EXPECT_EQ((*lifecycle)->live_version(), 2);

  // Wait with no cycle in flight reports OK.
  EXPECT_TRUE(retrainer.Wait().ok());
}

TEST_F(ModelLifecycleTest, ReopenResumesFromActiveVersionBitIdentically) {
  const ml::Dataset window = Window(0, 60, 5);
  std::string active_bytes;
  {
    auto lifecycle = ModelLifecycle::Open(Options());
    ASSERT_TRUE(lifecycle.ok());
    ASSERT_TRUE((*lifecycle)->RetrainAndSwap(window, 0, 120).ok());
    auto bytes = (*lifecycle)->registry().LoadModelBytes(1);
    ASSERT_TRUE(bytes.ok());
    active_bytes = *std::move(bytes);
  }
  auto reopened = ModelLifecycle::Open(Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_version(), 1);
  ASSERT_NE((*reopened)->LiveModel(), nullptr);
  // The restored epoch re-encodes to the exact artifact bytes: restart
  // resumes on the same model, bit for bit.
  EXPECT_EQ(io::EncodeGbdtClassifier(*(*reopened)->LiveModel()),
            active_bytes);
  // Predictions survive the restart unchanged.
  for (const auto& row : window.x) {
    EXPECT_EQ((*reopened)->LiveModel()->PredictRaw(row).size(), 2u);
  }
}

}  // namespace
}  // namespace core
}  // namespace rvar
