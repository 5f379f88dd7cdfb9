// Fuzz-style robustness tests: the snapshot reader, every decoder and the
// WAL segment scanner must survive arbitrary hostile bytes — random
// strings, mutated valid images, truncations, zero padding — without
// crashing, leaking, or reading out of bounds, and must always return a
// descriptive Status. Run under -DRVAR_SANITIZE=ON
// (ASan/UBSan) to make memory errors fatal; labeled `chaos` in ctest.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "io/wal.h"
#include "sim/faults.h"
#include "sim/telemetry.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace io {
namespace {

// A library built from three synthetic shape families, same recipe as
// serialize_test.
core::ShapeLibrary MakeLibrary() {
  sim::TelemetryStore store;
  core::GroupMedians medians;
  Rng rng(17);
  int gid = 0;
  for (int g = 0; g < 6; ++g) {
    for (int family = 0; family < 3; ++family) {
      const double median = rng.Uniform(50.0, 500.0);
      for (int i = 0; i < 30; ++i) {
        const double sigma = family == 0 ? 0.03 : (family == 1 ? 0.5 : 0.2);
        sim::JobRun run;
        run.group_id = gid;
        run.runtime_seconds =
            median * std::max(0.1, rng.Normal(1.0, sigma));
        store.Add(run);
      }
      medians.Set(gid, median);
      ++gid;
    }
  }
  core::ShapeLibraryConfig config;
  config.num_clusters = 3;
  config.min_support = 10;
  auto library = core::ShapeLibrary::Build(store, medians, config);
  EXPECT_TRUE(library.ok()) << library.status().ToString();
  return *std::move(library);
}

// A valid ShapeLibrary image to mutate.
std::string ValidLibraryImage() { return EncodeShapeLibrary(MakeLibrary()); }

// A valid kShapeServiceState image to mutate: four groups, each with its
// posterior sums and an embedded KLL sketch.
std::string ValidServiceStateImage(const core::ShapeLibrary& library) {
  auto service = core::ShapeService::Make(&library);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  Rng rng(29);
  for (int gid : {0, 4, 9, 13}) {
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          (*service)->Observe(gid, std::max(0.05, rng.Normal(1.0, 0.4)))
              .ok());
    }
  }
  return EncodeShapeServiceState(**service);
}

// Every decoder in io/serialize.h, driven over the same hostile input.
// None may crash; each must return a non-OK Status with a message.
void ExpectAllDecodersReject(const std::string& bytes) {
  {
    auto r = DecodeShapeLibrary(bytes);
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty());
    }
  }
  {
    auto r = DecodeGbdtClassifier(bytes);
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty());
    }
  }
  {
    auto r = DecodeShapeServiceState(bytes);
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty());
    }
  }
  {
    // The bare per-group record, as the recovery snapshot embeds it.
    auto r = DecodeGroupRecord(bytes);
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty());
    }
  }
  {
    auto r = DecodeKllSketch(bytes);
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty());
    }
  }
  {
    SnapshotDefect defect = SnapshotDefect::kNone;
    auto r = SnapshotReader::Open(bytes, PayloadKind::kShapeLibrary,
                                  &defect);
    if (!r.ok()) {
      EXPECT_NE(defect, SnapshotDefect::kNone);
      EXPECT_FALSE(r.status().message().empty());
    }
  }
}

TEST(SnapshotFuzzTest, RandomBytesNeverCrash) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    const int size = static_cast<int>(rng.UniformInt(0, 512));
    std::string bytes(static_cast<size_t>(size), '\0');
    for (char& b : bytes) {
      b = static_cast<char>(rng.UniformInt(0, 255));
    }
    ExpectAllDecodersReject(bytes);
  }
}

TEST(SnapshotFuzzTest, RandomBytesWithValidMagicNeverCrash) {
  // Start past the magic check so the record-walking code gets exercised.
  Rng rng(4052);
  for (int trial = 0; trial < 200; ++trial) {
    const int size = static_cast<int>(rng.UniformInt(4, 512));
    std::string bytes = "RVSN";
    for (int i = 4; i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    ExpectAllDecodersReject(bytes);
  }
}

TEST(SnapshotFuzzTest, MutatedValidImagesNeverCrash) {
  const std::string image = ValidLibraryImage();
  const sim::StorageFaultPlan faults(31);
  for (int trial = 0; trial < 256; ++trial) {
    std::string mutated =
        faults.FlipBits(image, /*num_flips=*/1 + trial % 8, trial);
    ExpectAllDecodersReject(mutated);
    // A mutated image must never decode back to a library: either the CRC
    // catches the flip, or (flips that cancel) it equals the original.
    auto decoded = DecodeShapeLibrary(mutated);
    if (decoded.ok()) {
      EXPECT_EQ(EncodeShapeLibrary(*decoded), image)
          << "mutated image decoded to different state, trial " << trial;
    }
  }
}

TEST(SnapshotFuzzTest, TruncatedValidImagesNeverCrash) {
  const std::string image = ValidLibraryImage();
  const sim::StorageFaultPlan faults(63);
  for (int trial = 0; trial < 128; ++trial) {
    const std::string torn =
        faults.TruncateTail(image, /*max_fraction=*/0.9, trial);
    ASSERT_LT(torn.size(), image.size());
    SnapshotDefect defect = SnapshotDefect::kNone;
    auto decoded = DecodeShapeLibrary(torn, &defect);
    EXPECT_FALSE(decoded.ok());
    EXPECT_NE(defect, SnapshotDefect::kNone);
  }
  // Every prefix of the header region, byte by byte.
  for (size_t len = 0; len < 32 && len < image.size(); ++len) {
    EXPECT_FALSE(DecodeShapeLibrary(image.substr(0, len)).ok());
  }
}

TEST(SnapshotFuzzTest, MutatedServiceStateImagesNeverCrash) {
  const core::ShapeLibrary library = MakeLibrary();
  const std::string image = ValidServiceStateImage(library);
  const sim::StorageFaultPlan faults(47);
  for (int trial = 0; trial < 256; ++trial) {
    std::string mutated =
        faults.FlipBits(image, /*num_flips=*/1 + trial % 8, trial);
    ExpectAllDecodersReject(mutated);
    // Either the CRC catches the flip, or (flips that cancel) the decoded
    // states restore into a service that re-encodes to the original.
    auto decoded = DecodeShapeServiceState(mutated);
    if (decoded.ok()) {
      auto restored = core::ShapeService::Make(&library);
      ASSERT_TRUE(restored.ok());
      ASSERT_TRUE((*restored)->RestoreState(*decoded).ok());
      EXPECT_EQ(EncodeShapeServiceState(**restored), image)
          << "mutated image decoded to different state, trial " << trial;
    }
  }
}

TEST(SnapshotFuzzTest, TruncatedServiceStateImagesNeverCrash) {
  const std::string image = ValidServiceStateImage(MakeLibrary());
  const sim::StorageFaultPlan faults(95);
  for (int trial = 0; trial < 128; ++trial) {
    const std::string torn =
        faults.TruncateTail(image, /*max_fraction=*/0.9, trial);
    ASSERT_LT(torn.size(), image.size());
    ExpectAllDecodersReject(torn);
    SnapshotDefect defect = SnapshotDefect::kNone;
    auto decoded = DecodeShapeServiceState(torn, &defect);
    EXPECT_FALSE(decoded.ok());
    EXPECT_NE(defect, SnapshotDefect::kNone);
  }
  for (size_t len = 0; len < 32 && len < image.size(); ++len) {
    EXPECT_FALSE(DecodeShapeServiceState(image.substr(0, len)).ok());
  }
}

TEST(SnapshotFuzzTest, SplicedRecordsNeverCrash) {
  // Concatenations and interleavings of two valid images: framing survives
  // and the decoder reports trailing garbage / CRC mismatches.
  const std::string image = ValidLibraryImage();
  ExpectAllDecodersReject(image + image);
  ExpectAllDecodersReject(image.substr(0, image.size() / 2) + image);
  std::string swapped = image;
  if (swapped.size() > 64) {
    std::swap(swapped[40], swapped[50]);
  }
  ExpectAllDecodersReject(swapped);
  EXPECT_FALSE(DecodeShapeLibrary(image + image).ok());
}

// Scans `bytes` and checks the scanner's contract: no crash, an intact
// prefix no longer than the image, dropped bytes either none (a clean end
// or an all-zero tail) or the whole rest, and, for images derived from a
// segment holding `written`, records that are a prefix of `written`.
void ExpectWalScanSane(const std::string& bytes,
                       const std::vector<std::string>* written) {
  auto scan = ScanWalSegment(bytes);
  if (!scan.ok()) {
    EXPECT_FALSE(scan.status().message().empty());
    return;
  }
  EXPECT_LE(scan->valid_bytes, bytes.size());
  if (scan->dropped_bytes != 0) {
    EXPECT_EQ(scan->dropped_bytes, bytes.size() - scan->valid_bytes);
    EXPECT_TRUE(scan->torn_tail || scan->corrupt_record);
  } else {
    EXPECT_FALSE(scan->torn_tail || scan->corrupt_record);
    EXPECT_EQ(bytes.find_first_not_of('\0', scan->valid_bytes),
              std::string::npos)
        << "bytes past valid_bytes were neither dropped nor zero";
  }
  if (written != nullptr) {
    ASSERT_LE(scan->records.size(), written->size());
    for (size_t i = 0; i < scan->records.size(); ++i) {
      EXPECT_EQ(scan->records[i], (*written)[i]) << "record " << i;
    }
  }
}

TEST(SnapshotFuzzTest, WalScanOfHostileSegmentsNeverCrashes) {
  // A segment as WalWriter leaves it, from records of random sizes.
  UniqueTempDir dir;
  const std::string path = dir.File("wal-000001");
  Rng rng(811);
  std::vector<std::string> written;
  {
    auto writer = WalWriter::Create(path, 1, /*sync_each_append=*/false);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int i = 0; i < 40; ++i) {
      std::string record(static_cast<size_t>(rng.UniformInt(0, 40)), '\0');
      for (char& b : record) b = static_cast<char>(rng.UniformInt(0, 255));
      ASSERT_TRUE(writer->Append(record).ok());
      written.push_back(std::move(record));
    }
  }
  auto image = ReadFileToString(path);
  ASSERT_TRUE(image.ok());
  const auto zeros = [&] {
    return std::string(static_cast<size_t>(rng.UniformInt(1, 600)), '\0');
  };

  // The intact image, bare and zero-padded, scans clean and whole.
  for (const std::string& bytes : {*image, *image + zeros()}) {
    auto scan = ScanWalSegment(bytes);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->records, written);
    EXPECT_EQ(scan->valid_bytes, image->size());
    EXPECT_EQ(scan->dropped_bytes, 0u);
  }

  const sim::StorageFaultPlan faults(53);
  for (int trial = 0; trial < 256; ++trial) {
    const std::string flipped =
        faults.FlipBits(*image, /*num_flips=*/1 + trial % 8, trial);
    const std::string torn =
        faults.TruncateTail(*image, /*max_fraction=*/0.9, trial);
    ExpectWalScanSane(flipped, &written);
    ExpectWalScanSane(flipped + zeros(), &written);
    ExpectWalScanSane(torn, &written);
    ExpectWalScanSane(torn + zeros(), &written);
    // A stray nonzero byte somewhere in the zero tail: never end of log.
    std::string stray = *image + zeros();
    stray[static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(image->size()),
        static_cast<int64_t>(stray.size()) - 1))] = '\x5a';
    ExpectWalScanSane(stray, &written);

    // Hostile bytes: random, and random behind a valid header.
    std::string random(static_cast<size_t>(rng.UniformInt(0, 512)), '\0');
    for (char& b : random) b = static_cast<char>(rng.UniformInt(0, 255));
    ExpectWalScanSane(random, nullptr);
    ExpectWalScanSane(image->substr(0, kWalHeaderSize) + random, nullptr);
    ExpectWalScanSane(image->substr(0, kWalHeaderSize) + random + zeros(),
                      nullptr);
  }
}

}  // namespace
}  // namespace io
}  // namespace rvar
