#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "io/codec.h"
#include "io/crc32.h"
#include "io/model_registry.h"
#include "io/recovery.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace io {
namespace {

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 (IEEE) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string text = "runtime variation in big data analytics";
  const uint32_t partial = Crc32(text.substr(0, 10));
  EXPECT_EQ(Crc32(text.substr(10), partial), Crc32(text));
}

TEST(Crc32Test, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xCBF43926u, 0xFFFFFFFFu}) {
    EXPECT_EQ(UnmaskCrc32(MaskCrc32(crc)), crc);
    EXPECT_NE(MaskCrc32(crc), crc);  // stored form differs from raw CRC
  }
}

TEST(CodecTest, ScalarsRoundTrip) {
  BinaryWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(1ull << 60);
  w.PutI32(-42);
  w.PutI64(-(1ll << 50));
  w.PutDouble(3.14159);
  w.PutString("hello");
  w.PutDoubleVector({1.0, -2.5});
  w.PutI32Vector({3, -4, 5});

  BinaryReader r(w.bytes());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEF);
  EXPECT_EQ(*r.ReadU64(), 1ull << 60);
  EXPECT_EQ(*r.ReadI32(), -42);
  EXPECT_EQ(*r.ReadI64(), -(1ll << 50));
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.14159);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(*r.ReadDoubleVector(), (std::vector<double>{1.0, -2.5}));
  EXPECT_EQ(*r.ReadI32Vector(), (std::vector<int>{3, -4, 5}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, ShortBufferFailsWithoutAdvancing) {
  BinaryReader r("ab");
  auto u32 = r.ReadU32();
  EXPECT_FALSE(u32.ok());
  EXPECT_EQ(r.position(), 0u);  // cursor unchanged on failure
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(CodecTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  BinaryWriter w;
  w.PutU64(~0ull);  // claims ~2^64 bytes follow
  BinaryReader r(w.bytes());
  EXPECT_FALSE(r.ReadString().ok());
  EXPECT_FALSE(BinaryReader(w.bytes()).ReadDoubleVector().ok());
  EXPECT_FALSE(BinaryReader(w.bytes()).ReadI32Vector().ok());
}

TEST(SnapshotTest, RoundTripsRecords) {
  SnapshotWriter writer(PayloadKind::kShapeLibrary);
  writer.AddRecord("first");
  writer.AddRecord("");
  writer.AddRecord(std::string(1000, 'x'));
  const std::string image = writer.Finish();

  auto reader = SnapshotReader::Open(image, PayloadKind::kShapeLibrary);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->num_records(), 3u);
  EXPECT_EQ(*reader->Record(0), "first");
  EXPECT_EQ(*reader->Record(1), "");
  EXPECT_EQ(*reader->Record(2), std::string(1000, 'x'));
  EXPECT_FALSE(reader->Record(3).ok());
}

TEST(SnapshotTest, ClassifiesDefects) {
  SnapshotWriter writer(PayloadKind::kShapeLibrary);
  writer.AddRecord("payload");
  const std::string image = writer.Finish();
  SnapshotDefect defect = SnapshotDefect::kNone;

  // Too short for a header.
  EXPECT_FALSE(SnapshotReader::Open("RV", PayloadKind::kShapeLibrary,
                                    &defect)
                   .ok());
  EXPECT_EQ(defect, SnapshotDefect::kShortHeader);

  // Wrong magic.
  std::string bad = image;
  bad[0] = 'X';
  EXPECT_FALSE(
      SnapshotReader::Open(bad, PayloadKind::kShapeLibrary, &defect).ok());
  EXPECT_EQ(defect, SnapshotDefect::kBadMagic);

  // Unknown future version (header CRC recomputed to isolate the check).
  {
    SnapshotWriter w2(PayloadKind::kShapeLibrary);
    w2.AddRecord("payload");
    std::string future = w2.Finish();
    future[4] = 99;  // version byte
    const uint32_t crc = MaskCrc32(Crc32(std::string_view(future).substr(
        0, 20)));
    for (int i = 0; i < 4; ++i) {
      future[20 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    EXPECT_FALSE(
        SnapshotReader::Open(future, PayloadKind::kShapeLibrary, &defect)
            .ok());
    EXPECT_EQ(defect, SnapshotDefect::kBadVersion);
  }

  // Corrupted header byte.
  bad = image;
  bad[9] ^= 0x40;
  EXPECT_FALSE(
      SnapshotReader::Open(bad, PayloadKind::kShapeLibrary, &defect).ok());
  EXPECT_EQ(defect, SnapshotDefect::kHeaderCrcMismatch);

  // Intact file, wrong payload kind.
  EXPECT_FALSE(
      SnapshotReader::Open(image, PayloadKind::kTelemetryStore, &defect)
          .ok());
  EXPECT_EQ(defect, SnapshotDefect::kWrongPayloadKind);

  // Flipped payload byte.
  bad = image;
  bad[bad.size() - 2] ^= 0x01;
  EXPECT_FALSE(
      SnapshotReader::Open(bad, PayloadKind::kShapeLibrary, &defect).ok());
  EXPECT_EQ(defect, SnapshotDefect::kRecordCrcMismatch);

  // Truncated mid-record (torn write).
  bad = image.substr(0, image.size() - 3);
  EXPECT_FALSE(
      SnapshotReader::Open(bad, PayloadKind::kShapeLibrary, &defect).ok());
  EXPECT_EQ(defect, SnapshotDefect::kTornRecord);

  // Clean truncation at a record boundary: fewer records than promised.
  bad = image.substr(0, 24);
  EXPECT_FALSE(
      SnapshotReader::Open(bad, PayloadKind::kShapeLibrary, &defect).ok());
  EXPECT_EQ(defect, SnapshotDefect::kRecordCountMismatch);

  // Bytes appended past the promised records.
  bad = image + "zzz";
  EXPECT_FALSE(
      SnapshotReader::Open(bad, PayloadKind::kShapeLibrary, &defect).ok());
  EXPECT_EQ(defect, SnapshotDefect::kTrailingGarbage);
}

TEST(SnapshotTest, DefectNamesAreDistinct) {
  for (int i = 0; i < kNumSnapshotDefects; ++i) {
    for (int j = i + 1; j < kNumSnapshotDefects; ++j) {
      EXPECT_STRNE(SnapshotDefectName(static_cast<SnapshotDefect>(i)),
                   SnapshotDefectName(static_cast<SnapshotDefect>(j)));
    }
  }
}

TEST(AtomicWriteTest, RoundTripsAndReplaces) {
  const UniqueTempDir dir;
  const std::string path = dir.File("atomic");
  ASSERT_TRUE(AtomicWriteFile(path, "first contents").ok());
  EXPECT_EQ(*ReadFileToString(path), "first contents");
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  EXPECT_EQ(*ReadFileToString(path), "second");
  // No temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicWriteTest, MissingFileIsNotFound) {
  const UniqueTempDir dir;
  auto missing = ReadFileToString(dir.File("never_written"));
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
}

TEST(SnapshotTest, WriteFileRoundTrips) {
  const UniqueTempDir dir;
  const std::string path = dir.File("container");
  SnapshotWriter writer(PayloadKind::kGbdtClassifier);
  writer.AddRecord("abc");
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  auto reader = SnapshotReader::Open(*bytes, PayloadKind::kGbdtClassifier);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->Record(0), "abc");
}

TEST(NumberedFileNameTest, RoundTripsAndRejectsMalformedNames) {
  EXPECT_EQ(NumberedFileName("wal-", 42), "wal-000042");
  EXPECT_EQ(NumberedFileName("model-", 1234567), "model-1234567");
  EXPECT_EQ(ParseNumberedFileName("wal-000042", "wal-"), 42);
  EXPECT_EQ(ParseNumberedFileName("snapshot-9223372036854775807",
                                  "snapshot-"),
            std::numeric_limits<int64_t>::max());
  for (const char* bad :
       {"wal-", "wal-12a", "wal--1", "wal-000042.tmp", "snapshot-000001",
        "wal-9223372036854775808", "wal-99999999999999999999"}) {
    EXPECT_EQ(ParseNumberedFileName(bad, "wal-"), -1) << bad;
  }
}

// A directory listing is untrusted input: a name whose digits overflow
// int64 must be ignored, not parsed with signed overflow into some
// generation or version that then shadows the real ones.
TEST(NumberedFileNameTest, OpenIgnoresNamesThatOverflowInt64) {
  const UniqueTempDir dir;
  const std::string huge = "99999999999999999999";
  auto touch = [](const std::string& path) {
    ASSERT_TRUE(AtomicWriteFile(path, "x").ok()) << path;
  };

  const std::string state = dir.File("state");
  std::filesystem::create_directories(state);
  touch(state + "/snapshot-" + huge);
  touch(state + "/wal-" + huge);
  {
    auto manager = RecoveryManager::Open(state);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    EXPECT_FALSE(manager->HasState());
    EXPECT_EQ(manager->generation(), 0);
  }
  touch(state + "/snapshot-000003");
  {
    auto manager = RecoveryManager::Open(state);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    EXPECT_TRUE(manager->HasState());
    EXPECT_EQ(manager->generation(), 3);
  }

  const std::string models = dir.File("models");
  std::filesystem::create_directories(models);
  touch(models + "/model-" + huge);
  touch(models + "/manifest-" + huge);
  touch(models + "/model-000004");
  auto registry = ModelRegistry::Open(models);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  EXPECT_EQ(registry->next_version(), 5);
  EXPECT_TRUE(registry->Versions().empty());
  EXPECT_EQ(registry->num_corrupt_manifests(), 0);
}

}  // namespace
}  // namespace io
}  // namespace rvar
