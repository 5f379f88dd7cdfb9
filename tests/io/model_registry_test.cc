// ModelRegistry tests: version numbering, the candidate → active →
// retired / quarantined state machine, CRC verification on artifact
// reads, ACTIVE-pointer reconciliation across reopen, prune retention
// rules, and corrupt-manifest tolerance.

#include "io/model_registry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/serialize.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "sim/faults.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace io {
namespace {

class ModelRegistryTest : public ::testing::Test {
 protected:

  // A small fitted GBDT encoded through the snapshot codec; `seed` varies
  // the data so distinct versions hold distinct bytes.
  static std::string ModelImage(uint64_t seed) {
    ml::Dataset train;
    train.feature_names = {"x0", "x1"};
    Rng rng(seed);
    for (int c = 0; c < 2; ++c) {
      for (int i = 0; i < 40; ++i) {
        train.x.push_back({rng.Normal(c * 3.0, 0.5),
                           rng.Normal(c * 3.0, 0.5)});
        train.y.push_back(c);
        train.target.push_back(0.0);
      }
    }
    ml::GbdtConfig config;
    config.num_rounds = 4;
    config.max_leaves = 4;
    ml::GbdtClassifier model(config);
    EXPECT_TRUE(model.Fit(train).ok());
    return EncodeGbdtClassifier(model);
  }

  static ModelManifest Candidate(uint64_t seed) {
    ModelManifest m;
    m.seed = seed;
    m.window_begin = 100 * seed;
    m.window_end = 100 * seed + 50;
    m.num_rows = 80;
    return m;
  }

  UniqueTempDir temp_;
  const std::string dir_ = temp_.str();
};

TEST_F(ModelRegistryTest, FreshDirectoryStartsEmpty) {
  auto registry = ModelRegistry::Open(dir_);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry->active_version(), -1);
  EXPECT_EQ(registry->next_version(), 1);
  EXPECT_TRUE(registry->Versions().empty());
  EXPECT_EQ(registry->num_corrupt_manifests(), 0);
  EXPECT_FALSE(registry->Manifest(1).ok());
  EXPECT_FALSE(registry->LoadModelBytes(1).ok());
}

TEST_F(ModelRegistryTest, PutCandidateAssignsMonotonicVersions) {
  auto registry = ModelRegistry::Open(dir_);
  ASSERT_TRUE(registry.ok());
  auto v1 = registry->PutCandidate(Candidate(1), ModelImage(1));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1);
  auto v2 = registry->PutCandidate(Candidate(2), ModelImage(2));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2);
  EXPECT_EQ(registry->next_version(), 3);
  EXPECT_EQ(registry->Versions(), (std::vector<int64_t>{1, 2}));

  auto m1 = registry->Manifest(1);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1->state, ModelState::kCandidate);
  EXPECT_EQ(m1->seed, 1u);
  EXPECT_EQ(m1->model_size, ModelImage(1).size());

  // Empty artifacts and stale version numbers are refused.
  EXPECT_FALSE(registry->PutCandidate(Candidate(9), "").ok());
  ModelManifest stale = Candidate(9);
  stale.version = 1;
  EXPECT_FALSE(registry->PutCandidate(stale, ModelImage(9)).ok());
}

TEST_F(ModelRegistryTest, LoadModelBytesVerifiesCrc) {
  auto registry = ModelRegistry::Open(dir_);
  ASSERT_TRUE(registry.ok());
  const std::string image = ModelImage(7);
  ASSERT_TRUE(registry->PutCandidate(Candidate(7), image).ok());
  auto bytes = registry->LoadModelBytes(1);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, image);
  auto model = registry->LoadModel(1);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->num_classes(), 2);

  // Bit rot in the artifact is caught by the manifest CRC before decode.
  const sim::StorageFaultPlan faults(13);
  ASSERT_TRUE(faults.CorruptFile(registry->ModelPath(1), /*num_flips=*/3,
                                 /*truncate_fraction=*/0.0)
                  .ok());
  auto corrupt = registry->LoadModelBytes(1);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(registry->LoadModel(1).ok());
}

TEST_F(ModelRegistryTest, ActivateRetiresPreviousAndSurvivesReopen) {
  auto registry = ModelRegistry::Open(dir_);
  ASSERT_TRUE(registry.ok());
  ASSERT_TRUE(registry->PutCandidate(Candidate(1), ModelImage(1)).ok());
  ASSERT_TRUE(registry->PutCandidate(Candidate(2), ModelImage(2)).ok());

  ASSERT_TRUE(registry->Activate(1).ok());
  EXPECT_EQ(registry->active_version(), 1);
  ASSERT_TRUE(registry->Activate(2).ok());
  EXPECT_EQ(registry->active_version(), 2);
  EXPECT_EQ(registry->Manifest(1)->state, ModelState::kRetired);
  EXPECT_EQ(registry->Manifest(2)->state, ModelState::kActive);

  // Rollback: re-activating a retired version retires the current one.
  ASSERT_TRUE(registry->Activate(1).ok());
  EXPECT_EQ(registry->active_version(), 1);
  EXPECT_EQ(registry->Manifest(2)->state, ModelState::kRetired);

  // Reopen restores the same picture from disk.
  auto reopened = ModelRegistry::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->active_version(), 1);
  EXPECT_EQ(reopened->next_version(), 3);
  EXPECT_EQ(reopened->Manifest(1)->state, ModelState::kActive);
  EXPECT_EQ(reopened->Manifest(2)->state, ModelState::kRetired);
}

TEST_F(ModelRegistryTest, DeactivateClearsServingAndSurvivesReopen) {
  auto registry = ModelRegistry::Open(dir_);
  ASSERT_TRUE(registry.ok());
  // Nothing active: Deactivate is a no-op, not an error.
  EXPECT_TRUE(registry->Deactivate().ok());
  EXPECT_EQ(registry->active_version(), -1);

  ASSERT_TRUE(registry->PutCandidate(Candidate(1), ModelImage(1)).ok());
  ASSERT_TRUE(registry->Activate(1).ok());
  ASSERT_TRUE(std::filesystem::exists(registry->ActivePath()));

  ASSERT_TRUE(registry->Deactivate().ok());
  EXPECT_EQ(registry->active_version(), -1);
  EXPECT_FALSE(std::filesystem::exists(registry->ActivePath()));
  EXPECT_EQ(registry->Manifest(1)->state, ModelState::kRetired);
  // Deactivation unblocks quarantining the ex-live version — the kill
  // switch sequence the lifecycle runs.
  EXPECT_TRUE(registry->Quarantine(1, "kill switch").ok());

  // Reopen sees an empty serving slot, and the retired-then-quarantined
  // manifest, from disk alone.
  auto reopened = ModelRegistry::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->active_version(), -1);
  EXPECT_EQ(reopened->Manifest(1)->state, ModelState::kQuarantined);
  EXPECT_EQ(reopened->next_version(), 2);
}

TEST_F(ModelRegistryTest, QuarantineBlocksActivationAndServing) {
  auto registry = ModelRegistry::Open(dir_);
  ASSERT_TRUE(registry.ok());
  ASSERT_TRUE(registry->PutCandidate(Candidate(1), ModelImage(1)).ok());
  ASSERT_TRUE(registry->PutCandidate(Candidate(2), ModelImage(2)).ok());
  ASSERT_TRUE(registry->Activate(1).ok());

  ASSERT_TRUE(registry->Quarantine(2, "agreement: too low").ok());
  EXPECT_EQ(registry->Manifest(2)->state, ModelState::kQuarantined);
  EXPECT_EQ(registry->Manifest(2)->reason, "agreement: too low");
  EXPECT_FALSE(registry->Activate(2).ok());

  // The active version cannot be quarantined out from under serving.
  EXPECT_FALSE(registry->Quarantine(1, "nope").ok());
  EXPECT_EQ(registry->Manifest(1)->state, ModelState::kActive);

  // Reopen keeps the quarantine reason and never resurrects the version.
  auto reopened = ModelRegistry::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->active_version(), 1);
  EXPECT_EQ(reopened->Manifest(2)->state, ModelState::kQuarantined);
  EXPECT_EQ(reopened->Manifest(2)->reason, "agreement: too low");
}

TEST_F(ModelRegistryTest, RecordValidationPersists) {
  auto registry = ModelRegistry::Open(dir_);
  ASSERT_TRUE(registry.ok());
  ASSERT_TRUE(registry->PutCandidate(Candidate(1), ModelImage(1)).ok());
  ASSERT_TRUE(registry->RecordValidation(1, 0.25, 0.97).ok());
  auto reopened = ModelRegistry::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_DOUBLE_EQ(reopened->Manifest(1)->holdout_logloss, 0.25);
  EXPECT_DOUBLE_EQ(reopened->Manifest(1)->agreement, 0.97);
}

TEST_F(ModelRegistryTest, PruneKeepsNewestRetiredActiveAndTombstones) {
  auto registry = ModelRegistry::Open(dir_);
  ASSERT_TRUE(registry.ok());
  for (uint64_t v = 1; v <= 6; ++v) {
    ASSERT_TRUE(registry->PutCandidate(Candidate(v), ModelImage(v)).ok());
    ASSERT_TRUE(registry->Activate(static_cast<int64_t>(v)).ok());
  }
  // States now: 1..5 retired, 6 active.
  auto pruned = registry->Prune(/*keep_retired=*/2);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(*pruned, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(registry->Versions(), (std::vector<int64_t>{4, 5, 6}));
  EXPECT_FALSE(std::filesystem::exists(registry->ModelPath(1)));
  EXPECT_TRUE(std::filesystem::exists(registry->ModelPath(4)));

  // Ids are never reused after pruning.
  EXPECT_EQ(registry->next_version(), 7);
  auto reopened = ModelRegistry::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->next_version(), 7);

  // Quarantined tombstones survive pruning.
  ASSERT_TRUE(reopened->Quarantine(4, "holdout-logloss: too high").ok());
  auto pruned2 = reopened->Prune(/*keep_retired=*/0);
  ASSERT_TRUE(pruned2.ok());
  EXPECT_EQ(*pruned2, (std::vector<int64_t>{5}));
  EXPECT_EQ(reopened->Versions(), (std::vector<int64_t>{4, 6}));
  EXPECT_EQ(reopened->Manifest(4)->state, ModelState::kQuarantined);
}

TEST_F(ModelRegistryTest, CorruptManifestIsSkippedButPinsVersionCounter) {
  {
    auto registry = ModelRegistry::Open(dir_);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(registry->PutCandidate(Candidate(1), ModelImage(1)).ok());
    ASSERT_TRUE(registry->PutCandidate(Candidate(2), ModelImage(2)).ok());
    ASSERT_TRUE(registry->Activate(1).ok());
  }
  // Rot the *manifest* of version 2 (not its artifact).
  const sim::StorageFaultPlan faults(29);
  {
    auto registry = ModelRegistry::Open(dir_);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(
        faults.CorruptFile(registry->ManifestPath(2), 4, 0.0).ok());
  }
  auto reopened = ModelRegistry::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_corrupt_manifests(), 1);
  EXPECT_EQ(reopened->Versions(), (std::vector<int64_t>{1}));
  EXPECT_EQ(reopened->active_version(), 1);
  // Version 2's id stays burned even though its manifest is unreadable.
  EXPECT_EQ(reopened->next_version(), 3);
}

TEST_F(ModelRegistryTest, ActivePointerWinsStateDisputes) {
  {
    auto registry = ModelRegistry::Open(dir_);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(registry->PutCandidate(Candidate(1), ModelImage(1)).ok());
    ASSERT_TRUE(registry->PutCandidate(Candidate(2), ModelImage(2)).ok());
    ASSERT_TRUE(registry->Activate(1).ok());
    ASSERT_TRUE(registry->Activate(2).ok());
  }
  // Simulate a crash between the manifest writes and the pointer write by
  // pointing ACTIVE back at version 1 out-of-band.
  {
    auto registry = ModelRegistry::Open(dir_);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(registry->Activate(1).ok());
  }
  auto reopened = ModelRegistry::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->active_version(), 1);
  EXPECT_EQ(reopened->Manifest(1)->state, ModelState::kActive);
  EXPECT_EQ(reopened->Manifest(2)->state, ModelState::kRetired);

  // A missing pointer file means nothing serves, whatever manifests say.
  std::filesystem::remove(reopened->ActivePath());
  auto cold = ModelRegistry::Open(dir_);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->active_version(), -1);
}

}  // namespace
}  // namespace io
}  // namespace rvar
