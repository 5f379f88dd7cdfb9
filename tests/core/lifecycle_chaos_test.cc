// Lifecycle chaos suite (ctest -L chaos): every crash window and
// corruption the fail-safe design claims to survive, proven by
// kill-and-reopen. The invariant under test is single: whatever happens
// to a candidate — crash before validation, bit rot, torn write, gate
// rejection — serving stays on the last good version, and a restart
// resumes it bit-identically.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/model_lifecycle.h"
#include "io/model_registry.h"
#include "io/serialize.h"
#include "ml/dataset.h"
#include "sim/faults.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace core {
namespace {

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

class LifecycleChaosTest : public ::testing::Test {
 protected:

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

// Crash between TrainCandidate and ValidateAndSwap: the process dies with
// an unvalidated candidate on disk. Reopen must quarantine it — it never
// passed a gate, so it must never serve — while the last good version
// keeps serving.
TEST_F(LifecycleChaosTest, KillDuringRetrainQuarantinesOrphan) {
  std::string good_bytes;
  {
    auto lifecycle = ModelLifecycle::Open(Options());
    ASSERT_TRUE(lifecycle.ok());
    ASSERT_TRUE(
        (*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());
    auto bytes = (*lifecycle)->registry().LoadModelBytes(1);
    ASSERT_TRUE(bytes.ok());
    good_bytes = *std::move(bytes);
    // Phase 1 only — then "kill" the process by dropping the lifecycle.
    auto version = (*lifecycle)->TrainCandidate(Window(1, 60, 6), 120, 240);
    ASSERT_TRUE(version.ok());
    ASSERT_EQ(*version, 2);
  }

  auto reopened = ModelLifecycle::Open(Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_version(), 1);
  ASSERT_NE((*reopened)->LiveModel(), nullptr);
  EXPECT_EQ(io::EncodeGbdtClassifier(*(*reopened)->LiveModel()),
            good_bytes);

  auto m2 = (*reopened)->registry().Manifest(2);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->state, io::ModelState::kQuarantined);
  EXPECT_EQ(m2->reason.rfind("orphaned:", 0), 0u) << m2->reason;
  // The orphan can never be validated or served later.
  EXPECT_FALSE((*reopened)->ValidateAndSwap(2, Window(1, 60, 6)).ok());
  EXPECT_FALSE((*reopened)->Rollback(2).ok());
  // Its id is burned: the next candidate gets a fresh version.
  EXPECT_EQ((*reopened)->registry().next_version(), 3);
}

// Bit rot lands on the candidate artifact between the two phases (the
// StorageFaultPlan injects it). The CRC re-read inside ValidateAndSwap
// must catch it, quarantine the candidate, and leave serving untouched.
TEST_F(LifecycleChaosTest, CorruptedCandidateIsCaughtByGate) {
  auto lifecycle = ModelLifecycle::Open(Options());
  ASSERT_TRUE(lifecycle.ok());
  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());
  const auto live_before = (*lifecycle)->LiveModel();

  const ml::Dataset window = Window(1, 60, 6);
  auto version = (*lifecycle)->TrainCandidate(window, 120, 240);
  ASSERT_TRUE(version.ok());

  const sim::StorageFaultPlan faults(71);
  ASSERT_TRUE(faults
                  .CorruptFile((*lifecycle)->registry().ModelPath(*version),
                               /*num_flips=*/5, /*truncate_fraction=*/0.0)
                  .ok());

  const Status rejected = (*lifecycle)->ValidateAndSwap(*version, window);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message().find("artifact-corrupt"), std::string::npos)
      << rejected.ToString();
  EXPECT_EQ((*lifecycle)->live_version(), 1);
  EXPECT_EQ((*lifecycle)->LiveModel(), live_before);
  EXPECT_EQ((*lifecycle)->registry().Manifest(*version)->state,
            io::ModelState::kQuarantined);
}

// A torn write (truncated tail) is caught the same way as bit rot.
TEST_F(LifecycleChaosTest, TornCandidateWriteIsCaughtByGate) {
  auto lifecycle = ModelLifecycle::Open(Options());
  ASSERT_TRUE(lifecycle.ok());
  ASSERT_TRUE((*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());

  const ml::Dataset window = Window(1, 60, 6);
  auto version = (*lifecycle)->TrainCandidate(window, 120, 240);
  ASSERT_TRUE(version.ok());
  const sim::StorageFaultPlan faults(72);
  ASSERT_TRUE(faults
                  .CorruptFile((*lifecycle)->registry().ModelPath(*version),
                               /*num_flips=*/0, /*truncate_fraction=*/0.5)
                  .ok());

  EXPECT_FALSE((*lifecycle)->ValidateAndSwap(*version, window).ok());
  EXPECT_EQ((*lifecycle)->live_version(), 1);
}

// The active artifact itself rots while the process is down. Reopen must
// fall back to the newest loadable retired version and quarantine the
// corrupt one — serving resumes on the last good version, not on garbage
// and not on nothing.
TEST_F(LifecycleChaosTest, CorruptActiveFallsBackToRetiredOnReopen) {
  std::string v1_bytes;
  {
    auto lifecycle = ModelLifecycle::Open(Options());
    ASSERT_TRUE(lifecycle.ok());
    ASSERT_TRUE(
        (*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());
    ASSERT_TRUE(
        (*lifecycle)->RetrainAndSwap(Window(1, 60, 6), 120, 240).ok());
    ASSERT_EQ((*lifecycle)->live_version(), 2);
    auto bytes = (*lifecycle)->registry().LoadModelBytes(1);
    ASSERT_TRUE(bytes.ok());
    v1_bytes = *std::move(bytes);
    const sim::StorageFaultPlan faults(73);
    ASSERT_TRUE(
        faults.CorruptFile((*lifecycle)->registry().ModelPath(2), 5, 0.0)
            .ok());
  }

  auto reopened = ModelLifecycle::Open(Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_version(), 1);
  ASSERT_NE((*reopened)->LiveModel(), nullptr);
  EXPECT_EQ(io::EncodeGbdtClassifier(*(*reopened)->LiveModel()), v1_bytes);
  auto m2 = (*reopened)->registry().Manifest(2);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->state, io::ModelState::kQuarantined);
  EXPECT_EQ(m2->reason.rfind("artifact-corrupt:", 0), 0u) << m2->reason;
  // The fallback is durable: a second reopen lands in the same state.
  auto again = ModelLifecycle::Open(Options());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->live_version(), 1);
}

// Every artifact rots: nothing is loadable. The lifecycle must open
// cleanly with nothing serving rather than serve garbage or fail.
TEST_F(LifecycleChaosTest, AllArtifactsCorruptMeansNothingServes) {
  {
    auto lifecycle = ModelLifecycle::Open(Options());
    ASSERT_TRUE(lifecycle.ok());
    ASSERT_TRUE(
        (*lifecycle)->RetrainAndSwap(Window(0, 60, 5), 0, 120).ok());
    const sim::StorageFaultPlan faults(74);
    ASSERT_TRUE(
        faults.CorruptFile((*lifecycle)->registry().ModelPath(1), 5, 0.0)
            .ok());
  }
  auto reopened = ModelLifecycle::Open(Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_version(), -1);
  EXPECT_EQ((*reopened)->LiveModel(), nullptr);
  // The registry still works: a fresh cycle recovers the deployment.
  ASSERT_TRUE((*reopened)->RetrainAndSwap(Window(2, 60, 7), 240, 360).ok());
  EXPECT_GT((*reopened)->live_version(), 1);
}

// Repeated kill-and-reopen at every phase boundary: after each crash the
// survivor keeps serving a gate-approved version whose bytes round-trip
// exactly, and version ids never regress or repeat.
TEST_F(LifecycleChaosTest, RepeatedCrashReopenNeverRegresses) {
  int64_t last_live = -1;
  int64_t last_next = 1;
  std::string last_live_bytes;
  const sim::StorageFaultPlan faults(75);
  for (int round = 0; round < 6; ++round) {
    auto lifecycle = ModelLifecycle::Open(Options());
    ASSERT_TRUE(lifecycle.ok()) << "round " << round << ": "
                                << lifecycle.status().ToString();
    // Crash recovery invariants vs the previous round.
    EXPECT_GE((*lifecycle)->registry().next_version(), last_next);
    if (last_live >= 0) {
      ASSERT_EQ((*lifecycle)->live_version(), last_live);
      EXPECT_EQ(io::EncodeGbdtClassifier(*(*lifecycle)->LiveModel()),
                last_live_bytes);
    }

    const ml::Dataset window = Window(round, 50, 100 + round);
    const uint64_t begin = 100u * round;
    switch (round % 3) {
      case 0:  // clean full cycle
        ASSERT_TRUE(
            (*lifecycle)->RetrainAndSwap(window, begin, begin + 100).ok());
        break;
      case 1: {  // crash after phase 1
        ASSERT_TRUE(
            (*lifecycle)->TrainCandidate(window, begin, begin + 100).ok());
        break;
      }
      case 2: {  // corrupted candidate caught at the gate
        auto version =
            (*lifecycle)->TrainCandidate(window, begin, begin + 100);
        ASSERT_TRUE(version.ok());
        ASSERT_TRUE(
            faults
                .CorruptFile((*lifecycle)->registry().ModelPath(*version),
                             3, 0.0, /*salt=*/round)
                .ok());
        EXPECT_FALSE((*lifecycle)->ValidateAndSwap(*version, window).ok());
        break;
      }
    }
    last_live = (*lifecycle)->live_version();
    last_next = (*lifecycle)->registry().next_version();
    if (last_live >= 0) {
      auto bytes = (*lifecycle)->registry().LoadModelBytes(last_live);
      ASSERT_TRUE(bytes.ok());
      last_live_bytes = *std::move(bytes);
    }
  }
  // At least the round-0 and round-3 cycles must have produced a live
  // model that survived everything since.
  EXPECT_GE(last_live, 1);
}

}  // namespace
}  // namespace core
}  // namespace rvar
