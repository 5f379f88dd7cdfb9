#include "io/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/normalization.h"
#include "core/shape_service.h"
#include "ml/dataset.h"
#include "sim/faults.h"
#include "sim/telemetry.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace io {
namespace {

// --- Shared fixtures -----------------------------------------------------

// Synthetic reference telemetry: three distinct shape families so the
// library gets meaningfully different clusters.
struct Reference {
  sim::TelemetryStore store;
  core::GroupMedians medians;
};

Reference MakeReference(int groups_per_family, int runs_per_group,
                        uint64_t seed) {
  Reference ref;
  Rng rng(seed);
  int gid = 0;
  for (int g = 0; g < groups_per_family; ++g) {
    for (int family = 0; family < 3; ++family) {
      const double median = rng.Uniform(50.0, 500.0);
      for (int i = 0; i < runs_per_group; ++i) {
        double factor = 1.0;
        if (family == 0) factor = std::max(0.1, rng.Normal(1.0, 0.03));
        if (family == 1) factor = std::max(0.1, rng.Normal(1.0, 0.5));
        if (family == 2) {
          factor = rng.Bernoulli(0.3) ? rng.Normal(3.0, 0.1)
                                      : rng.Normal(1.0, 0.05);
          factor = std::max(0.1, factor);
        }
        sim::JobRun run;
        run.group_id = gid;
        run.runtime_seconds = median * factor;
        ref.store.Add(run);
      }
      ref.medians.Set(gid, median);
      ++gid;
    }
  }
  return ref;
}

core::ShapeLibrary MakeLibrary(uint64_t seed = 7) {
  Reference ref = MakeReference(8, 40, seed);
  core::ShapeLibraryConfig config;
  config.num_clusters = 3;
  config.min_support = 10;
  config.kmeans.num_restarts = 4;
  auto library = core::ShapeLibrary::Build(ref.store, ref.medians, config);
  EXPECT_TRUE(library.ok()) << library.status().ToString();
  return *std::move(library);
}

ml::Dataset Blobs(int n_per_class, uint64_t seed) {
  const double centers[3][2] = {{0.0, 0.0}, {4.0, 0.0}, {2.0, 4.0}};
  Rng rng(seed);
  ml::Dataset d;
  d.feature_names = {"x0", "x1"};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < n_per_class; ++i) {
      d.x.push_back({rng.Normal(centers[c][0], 0.6),
                     rng.Normal(centers[c][1], 0.6)});
      d.y.push_back(c);
    }
  }
  return d;
}

void ExpectLibrariesIdentical(const core::ShapeLibrary& a,
                              const core::ShapeLibrary& b) {
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  for (int k = 0; k < a.num_clusters(); ++k) {
    EXPECT_EQ(a.shape(k), b.shape(k)) << "cluster " << k;
    EXPECT_EQ(a.stats(k).outlier_probability,
              b.stats(k).outlier_probability);
    EXPECT_EQ(a.stats(k).iqr, b.stats(k).iqr);
    EXPECT_EQ(a.stats(k).p95, b.stats(k).p95);
    EXPECT_EQ(a.stats(k).stddev, b.stats(k).stddev);
    EXPECT_EQ(a.stats(k).num_samples, b.stats(k).num_samples);
    EXPECT_EQ(a.stats(k).num_groups, b.stats(k).num_groups);
  }
  EXPECT_EQ(a.reference_groups(), b.reference_groups());
  for (int gid : a.reference_groups()) {
    EXPECT_EQ(a.ReferenceAssignment(gid), b.ReferenceAssignment(gid));
  }
  EXPECT_EQ(a.inertia(), b.inertia());
  EXPECT_EQ(a.num_skipped_groups(), b.num_skipped_groups());
}

// --- ShapeLibrary --------------------------------------------------------

TEST(SerializeShapeLibraryTest, RoundTripsBitIdentically) {
  core::ShapeLibrary library = MakeLibrary();
  const std::string image = EncodeShapeLibrary(library);
  auto restored = DecodeShapeLibrary(image);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectLibrariesIdentical(library, *restored);
  // The restored library re-encodes to the same bytes: encoding is
  // canonical, which the recovery equivalence test relies on.
  EXPECT_EQ(EncodeShapeLibrary(*restored), image);
}

TEST(SerializeShapeLibraryTest, SaveLoadFile) {
  const UniqueTempDir dir;
  const std::string path = dir.File("lib_snapshot");
  core::ShapeLibrary library = MakeLibrary();
  ASSERT_TRUE(SaveShapeLibrary(library, path).ok());
  auto restored = LoadShapeLibrary(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectLibrariesIdentical(library, *restored);
}

TEST(SerializeShapeLibraryTest, RejectsWrongPayloadKind) {
  core::ShapeLibrary library = MakeLibrary();
  SnapshotDefect defect = SnapshotDefect::kNone;
  auto as_gbdt = DecodeGbdtClassifier(EncodeShapeLibrary(library), &defect);
  EXPECT_FALSE(as_gbdt.ok());
  EXPECT_EQ(defect, SnapshotDefect::kWrongPayloadKind);
}

// --- Models --------------------------------------------------------------

TEST(SerializeGbdtTest, RoundTripPredictsIdentically) {
  ml::Dataset train = Blobs(120, 3);
  ml::GbdtConfig config;
  config.num_rounds = 12;
  config.max_leaves = 8;
  ml::GbdtClassifier model(config);
  ASSERT_TRUE(model.Fit(train).ok());

  auto restored = DecodeGbdtClassifier(EncodeGbdtClassifier(model));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_classes(), model.num_classes());
  EXPECT_EQ(restored->rounds_used(), model.rounds_used());
  EXPECT_EQ(restored->feature_importance(), model.feature_importance());
  for (const auto& row : train.x) {
    EXPECT_EQ(model.PredictRaw(row), restored->PredictRaw(row));
  }
}

TEST(SerializeGbdtTest, MutatedImageNeverRoundTrips) {
  ml::Dataset train = Blobs(60, 6);
  ml::GbdtConfig config;
  config.num_rounds = 4;
  ml::GbdtClassifier model(config);
  ASSERT_TRUE(model.Fit(train).ok());
  const std::string image = EncodeGbdtClassifier(model);

  const sim::StorageFaultPlan faults(99);
  for (int trial = 0; trial < 64; ++trial) {
    auto mutated = DecodeGbdtClassifier(
        faults.FlipBits(image, /*num_flips=*/1 + trial % 5, trial));
    EXPECT_FALSE(mutated.ok());  // CRC catches every flip
  }
}

// --- ShapeService online state -------------------------------------------

TEST(SerializeShapeServiceTest, StateRoundTripsBitIdentically) {
  core::ShapeLibrary library = MakeLibrary();
  auto service = core::ShapeService::Make(&library);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  Rng rng(23);
  for (int gid : {0, 3, 5, 11}) {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          (*service)
              ->Observe(gid, std::max(0.05, rng.Normal(1.0, 0.4)))
              .ok());
    }
  }

  const std::string image = EncodeShapeServiceState(**service);
  auto states = DecodeShapeServiceState(image);
  ASSERT_TRUE(states.ok()) << states.status().ToString();
  ASSERT_EQ(states->size(), 4u);

  auto restored = core::ShapeService::Make(&library);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->RestoreState(*states).ok());
  for (int gid : {0, 3, 5, 11}) {
    EXPECT_EQ((*restored)->GroupCount(gid), (*service)->GroupCount(gid));
    for (int c = 0; c < library.num_clusters(); ++c) {
      EXPECT_EQ((*restored)->ProbabilityOf(gid, c),
                (*service)->ProbabilityOf(gid, c));
    }
    EXPECT_EQ((*restored)->PriorShape(gid), (*service)->PriorShape(gid));
  }
  // Canonical encoding: the restored service re-encodes to the same
  // bytes, so recovery equivalence holds transitively.
  EXPECT_EQ(EncodeShapeServiceState(**restored), image);
}

TEST(SerializeShapeServiceTest, SaveLoadFileAndDefects) {
  core::ShapeLibrary library = MakeLibrary();
  auto service = core::ShapeService::Make(&library);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Observe(2, 1.1).ok());
  const UniqueTempDir dir;
  const std::string path = dir.File("shape_service_state");
  ASSERT_TRUE(SaveShapeServiceState(**service, path).ok());
  auto states = LoadShapeServiceState(path);
  ASSERT_TRUE(states.ok()) << states.status().ToString();
  ASSERT_EQ(states->size(), 1u);
  EXPECT_EQ((*states)[0].group_id, 2);
  EXPECT_EQ((*states)[0].count, 1);

  // Corruption anywhere in the image is caught by the snapshot CRCs.
  const std::string image = EncodeShapeServiceState(**service);
  const sim::StorageFaultPlan faults(31);
  for (int trial = 0; trial < 32; ++trial) {
    auto mutated =
        DecodeShapeServiceState(faults.FlipBits(image, 1 + trial % 3,
                                                trial));
    EXPECT_FALSE(mutated.ok());
  }
  // Wrong payload kind is rejected before any decode.
  SnapshotDefect defect = SnapshotDefect::kNone;
  auto as_library = DecodeShapeLibrary(image, &defect);
  EXPECT_FALSE(as_library.ok());
  EXPECT_EQ(defect, SnapshotDefect::kWrongPayloadKind);
}

}  // namespace
}  // namespace io
}  // namespace rvar
