// Codec robustness for the KLL sketch wire format (ISSUE 10 satellite):
// the standalone PayloadKind::kKllSketch container and the sketch-bearing
// kShapeServiceState image must refuse bit-flipped, truncated, and
// semantically tampered bytes *whole* — with the right SnapshotDefect
// taxonomy for container damage and a clean InvalidArgument (defect
// kNone) when the container is intact but the payload fails
// KllSketch::Restore validation. Labeled `sketch` and `chaos` in ctest.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "io/codec.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "sim/faults.h"
#include "sim/telemetry.h"
#include "stats/kll_sketch.h"

namespace rvar {
namespace io {
namespace {

KllSketch BuildSketch(int k, int n, uint64_t seed) {
  auto sketch = KllSketch::Make(k);
  EXPECT_TRUE(sketch.ok());
  Rng rng(seed);
  for (int i = 0; i < n; ++i) sketch->Update(rng.LogNormal(0.0, 0.5));
  return *std::move(sketch);
}

void ExpectSketchesIdentical(const KllSketch& a, const KllSketch& b) {
  EXPECT_EQ(a.k(), b.k());
  EXPECT_EQ(a.n(), b.n());
  EXPECT_EQ(a.min_value(), b.min_value());
  EXPECT_EQ(a.max_value(), b.max_value());
  EXPECT_EQ(a.items(), b.items());
  EXPECT_EQ(a.level_sizes(), b.level_sizes());
  EXPECT_EQ(a.compaction_parity(), b.compaction_parity());
}

TEST(SketchCodecTest, RoundTripsBitIdentically) {
  for (int n : {0, 5, 199, 200, 50000}) {
    const KllSketch sketch = BuildSketch(200, n, 7 + static_cast<uint64_t>(n));
    const std::string image = EncodeKllSketch(sketch);
    auto decoded = DecodeKllSketch(image);
    ASSERT_TRUE(decoded.ok()) << "n=" << n << ": "
                              << decoded.status().ToString();
    ExpectSketchesIdentical(sketch, *decoded);
    // The re-encode is byte-identical: the wire format is canonical.
    EXPECT_EQ(EncodeKllSketch(*decoded), image) << "n=" << n;
  }
}

TEST(SketchCodecTest, EveryBitFlipIsRefusedWithContainerTaxonomy) {
  const KllSketch sketch = BuildSketch(128, 20000, 3);
  const std::string image = EncodeKllSketch(sketch);
  const sim::StorageFaultPlan faults(41);
  int crc_defects = 0;
  for (int trial = 0; trial < 128; ++trial) {
    SnapshotDefect defect = SnapshotDefect::kNone;
    auto mutated = DecodeKllSketch(
        faults.FlipBits(image, /*num_flips=*/1 + trial % 4,
                        static_cast<uint64_t>(trial)),
        &defect);
    ASSERT_FALSE(mutated.ok()) << "trial " << trial;
    // Every flip lands in CRC-covered bytes, so the container itself
    // classifies the damage — decode never reaches Restore.
    EXPECT_NE(defect, SnapshotDefect::kNone) << "trial " << trial;
    crc_defects += (defect == SnapshotDefect::kRecordCrcMismatch ||
                    defect == SnapshotDefect::kHeaderCrcMismatch);
  }
  EXPECT_GT(crc_defects, 0);  // the taxonomy is exercised, not vacuous
}

TEST(SketchCodecTest, EveryTruncationIsRefused) {
  const KllSketch sketch = BuildSketch(200, 30000, 9);
  const std::string image = EncodeKllSketch(sketch);
  const sim::StorageFaultPlan faults(43);
  for (int trial = 0; trial < 64; ++trial) {
    SnapshotDefect defect = SnapshotDefect::kNone;
    auto torn = DecodeKllSketch(
        faults.TruncateTail(image, /*max_fraction=*/0.9,
                            static_cast<uint64_t>(trial)),
        &defect);
    ASSERT_FALSE(torn.ok()) << "trial " << trial;
    EXPECT_NE(defect, SnapshotDefect::kNone) << "trial " << trial;
  }
}

// A container that is perfectly intact but carries tampered sketch fields
// must fail the semantic funnel (KllSketch::Restore) with defect kNone —
// the taxonomy distinguishes "storage damaged it" from "the payload was
// never a valid sketch".
TEST(SketchCodecTest, IntactContainerWithTamperedPayloadFailsSemantically) {
  const KllSketch sketch = BuildSketch(64, 5000, 11);
  auto tampered_image = [&](int64_t n_delta) {
    BinaryWriter w;
    w.PutU32(static_cast<uint32_t>(sketch.k()));
    w.PutI64(sketch.n() + n_delta);  // weight invariant broken when != 0
    uint32_t bits = 0;
    float f = sketch.min_value();
    std::memcpy(&bits, &f, sizeof(bits));
    w.PutU32(bits);
    f = sketch.max_value();
    std::memcpy(&bits, &f, sizeof(bits));
    w.PutU32(bits);
    w.PutU64(sketch.compaction_parity());
    w.PutU32(static_cast<uint32_t>(sketch.level_sizes().size()));
    for (uint32_t s : sketch.level_sizes()) w.PutU32(s);
    for (float item : sketch.items()) {
      std::memcpy(&bits, &item, sizeof(bits));
      w.PutU32(bits);
    }
    SnapshotWriter snap(PayloadKind::kKllSketch);
    snap.AddRecord(w.bytes());
    return snap.Finish();
  };
  {
    SnapshotDefect defect = SnapshotDefect::kRecordCrcMismatch;
    auto ok = DecodeKllSketch(tampered_image(0), &defect);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();  // control: layout right
    EXPECT_EQ(defect, SnapshotDefect::kNone);
  }
  SnapshotDefect defect = SnapshotDefect::kRecordCrcMismatch;
  auto bad = DecodeKllSketch(tampered_image(1), &defect);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status().ToString();
  EXPECT_EQ(defect, SnapshotDefect::kNone);  // container was intact
}

TEST(SketchCodecTest, WrongPayloadKindIsRefused) {
  const KllSketch sketch = BuildSketch(64, 100, 13);
  BinaryWriter w;
  EncodeKllSketchInto(sketch, &w);
  SnapshotWriter snap(PayloadKind::kGbdtClassifier);  // wrong kind on purpose
  snap.AddRecord(w.bytes());
  SnapshotDefect defect = SnapshotDefect::kNone;
  EXPECT_FALSE(DecodeKllSketch(snap.Finish(), &defect).ok());
  EXPECT_EQ(defect, SnapshotDefect::kWrongPayloadKind);
}

// A hostile level count / item count must be rejected before any
// allocation is sized from it (the decoder bounds-checks against the
// remaining bytes).
TEST(SketchCodecTest, HostileLengthsAreRejectedBeforeAllocation) {
  BinaryWriter w;
  w.PutU32(200);                       // k
  w.PutI64(1);                         // n
  w.PutU32(0x3f800000);                // min = 1.0f
  w.PutU32(0x3f800000);                // max = 1.0f
  w.PutU64(0);                         // parity
  w.PutU32(0x7fffffff);                // absurd level count
  SnapshotWriter snap(PayloadKind::kKllSketch);
  snap.AddRecord(w.bytes());
  SnapshotDefect defect = SnapshotDefect::kNone;
  auto hostile = DecodeKllSketch(snap.Finish(), &defect);
  ASSERT_FALSE(hostile.ok());
  EXPECT_TRUE(hostile.status().IsInvalidArgument());
  EXPECT_EQ(defect, SnapshotDefect::kNone);
}

// The sketch-bearing ShapeServiceState image: full round trip, and
// fault-injected images refused whole.
class SketchServiceImageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::TelemetryStore store;
    core::GroupMedians medians;
    Rng rng(19);
    for (int gid = 0; gid < 6; ++gid) {
      const double median = rng.Uniform(100.0, 200.0);
      for (int i = 0; i < 40; ++i) {
        sim::JobRun run;
        run.group_id = gid;
        run.runtime_seconds =
            median * std::max(0.1, rng.Normal(1.0, gid % 2 ? 0.4 : 0.05));
        store.Add(run);
      }
      medians.Set(gid, median);
    }
    core::ShapeLibraryConfig config;
    config.num_clusters = 2;
    config.min_support = 10;
    auto lib = core::ShapeLibrary::Build(store, medians, config);
    ASSERT_TRUE(lib.ok()) << lib.status().ToString();
    library_ = std::make_unique<core::ShapeLibrary>(*std::move(lib));
  }

  std::unique_ptr<core::ShapeLibrary> library_;
};

TEST_F(SketchServiceImageTest, ServiceStateWithSketchesRoundTrips) {
  auto service = core::ShapeService::Make(library_.get());
  ASSERT_TRUE(service.ok());
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        (*service)->Observe(i % 7, rng.LogNormal(0.0, 0.3)).ok());
  }
  const std::string image = EncodeShapeServiceState(**service);
  auto states = DecodeShapeServiceState(image);
  ASSERT_TRUE(states.ok()) << states.status().ToString();
  auto restored = core::ShapeService::Make(library_.get());
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->RestoreState(*states).ok());
  // The restored service re-exports byte-identically: sketches included.
  EXPECT_EQ(EncodeShapeServiceState(**restored), image);
  for (int gid = 0; gid < 7; ++gid) {
    EXPECT_EQ((*restored)->PriorShape(gid), (*service)->PriorShape(gid));
  }
}

TEST_F(SketchServiceImageTest, CorruptedServiceImagesAreRefusedWhole) {
  auto service = core::ShapeService::Make(library_.get());
  ASSERT_TRUE(service.ok());
  Rng rng(29);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*service)->Observe(i % 5, rng.Uniform(0.5, 3.0)).ok());
  }
  const std::string image = EncodeShapeServiceState(**service);
  const sim::StorageFaultPlan faults(47);
  for (int trial = 0; trial < 64; ++trial) {
    SnapshotDefect defect = SnapshotDefect::kNone;
    EXPECT_FALSE(DecodeShapeServiceState(
                     faults.FlipBits(image, 1 + trial % 3,
                                     static_cast<uint64_t>(trial)),
                     &defect)
                     .ok())
        << "trial " << trial;
    EXPECT_NE(defect, SnapshotDefect::kNone) << "trial " << trial;
  }
  for (int trial = 0; trial < 32; ++trial) {
    EXPECT_FALSE(DecodeShapeServiceState(
                     faults.TruncateTail(image, 0.8,
                                         static_cast<uint64_t>(100 + trial)))
                     .ok())
        << "trial " << trial;
  }
}

// Pre-sketch group records (the old layout, no trailing sketch bytes)
// fail at decode — never a half-loaded service missing its sketches.
TEST_F(SketchServiceImageTest, LegacyImagesWithoutSketchesAreRefused) {
  SnapshotWriter snap(PayloadKind::kShapeServiceState);
  {
    BinaryWriter w;
    w.PutU64(1);
    snap.AddRecord(w.bytes());
  }
  {
    BinaryWriter w;
    w.PutI32(0);                       // group id
    w.PutI64(4);                       // count
    w.PutI64(0);                       // num_clamped
    w.PutDoubleVector({-1.0, -2.0});   // ll sums, then... nothing
    snap.AddRecord(w.bytes());
  }
  SnapshotDefect defect = SnapshotDefect::kNone;
  auto legacy = DecodeShapeServiceState(snap.Finish(), &defect);
  ASSERT_FALSE(legacy.ok());
  EXPECT_TRUE(legacy.status().IsInvalidArgument() ||
              legacy.status().IsOutOfRange())
      << legacy.status().ToString();
  EXPECT_EQ(defect, SnapshotDefect::kNone);  // container intact, payload not
}

}  // namespace
}  // namespace io
}  // namespace rvar
