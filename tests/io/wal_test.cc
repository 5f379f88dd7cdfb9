#include "io/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "io/codec.h"
#include "io/crc32.h"
#include "io/snapshot.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace io {
namespace {

// The on-disk bytes the format defines, built independently of WalWriter:
// the 20-byte segment header, then one frame per record.
std::string SegmentBytes(uint64_t segment_id,
                         const std::vector<std::string>& records) {
  BinaryWriter out;
  out.PutRaw("RVWL");
  out.PutU32(kWalFormatVersion);
  out.PutU64(segment_id);
  out.PutU32(MaskCrc32(Crc32(out.bytes())));
  for (const std::string& record : records) {
    out.PutU32(static_cast<uint32_t>(record.size()));
    out.PutU32(MaskCrc32(Crc32(record)));
    out.PutRaw(record);
  }
  return out.TakeBytes();
}

class WalTest : public ::testing::Test {
 protected:
  void AppendRaw(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << bytes;
  }

  UniqueTempDir dir_;
  const std::string path_ = dir_.File("wal-000001");
};

TEST_F(WalTest, AppendAndScanRoundTrip) {
  {
    auto writer = WalWriter::Create(path_, 1, /*sync_each_append=*/true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append("one").ok());
    ASSERT_TRUE(writer->Append("").ok());
    ASSERT_TRUE(writer->Append("three").ok());
    EXPECT_EQ(writer->segment_id(), 1u);
  }
  auto scan = ScanWalFile(path_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->segment_id, 1u);
  EXPECT_EQ(scan->records,
            (std::vector<std::string>{"one", "", "three"}));
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_FALSE(scan->corrupt_record);
  EXPECT_EQ(scan->dropped_bytes, 0u);
  EXPECT_EQ(scan->valid_bytes, std::filesystem::file_size(path_));
}

TEST_F(WalTest, TornTailIsDetectedAndHealed) {
  {
    auto writer = WalWriter::Create(path_, 1, true);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("intact record").ok());
  }
  const uint64_t intact_size = std::filesystem::file_size(path_);
  AppendRaw(std::string("\x20\x00\x00\x00partial", 11));  // crash mid-append

  auto scan = ScanWalFile(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, (std::vector<std::string>{"intact record"}));
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, intact_size);
  EXPECT_EQ(scan->dropped_bytes,
            std::filesystem::file_size(path_) - intact_size);

  // Heal: truncate, then append over the repaired tail.
  ASSERT_TRUE(TruncateFile(path_, scan->valid_bytes).ok());
  auto writer = WalWriter::OpenForAppend(path_, 1, scan->valid_bytes, true);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append("after crash").ok());
  auto rescan = ScanWalFile(path_);
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->records,
            (std::vector<std::string>{"intact record", "after crash"}));
  EXPECT_FALSE(rescan->torn_tail);
}

TEST_F(WalTest, OpenForAppendRejectsUnexpectedSize) {
  {
    auto writer = WalWriter::Create(path_, 1, true);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("record").ok());
  }
  auto reopened = WalWriter::OpenForAppend(path_, 1, /*expected_size=*/7,
                                           true);
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsFailedPrecondition())
      << reopened.status().ToString();
}

TEST_F(WalTest, CorruptRecordStopsTheScan) {
  {
    auto writer = WalWriter::Create(path_, 1, true);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("good one").ok());
    ASSERT_TRUE(writer->Append("about to rot").ok());
    ASSERT_TRUE(writer->Append("unreachable").ok());
  }
  // Flip one payload byte of the middle record.
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  const size_t pos = bytes->find("about");
  ASSERT_NE(pos, std::string::npos);
  std::string mutated = *bytes;
  mutated[pos] ^= 0x04;
  ASSERT_TRUE(AtomicWriteFile(path_, mutated).ok());

  auto scan = ScanWalFile(path_);
  ASSERT_TRUE(scan.ok());
  // RocksDB semantics: everything from the corrupt record on is dropped.
  EXPECT_EQ(scan->records, (std::vector<std::string>{"good one"}));
  EXPECT_TRUE(scan->corrupt_record);
  EXPECT_GT(scan->dropped_bytes, 0u);
}

TEST_F(WalTest, ShortHeaderIsTornEmptySegment) {
  AppendRaw("RVW");  // crash while writing the header itself
  auto scan = ScanWalFile(path_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->records.empty());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, 0u);
}

TEST_F(WalTest, BadHeaderIsAnError) {
  {
    auto writer = WalWriter::Create(path_, 1, true);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("record").ok());
  }
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[0] = 'X';  // magic
  ASSERT_TRUE(AtomicWriteFile(path_, mutated).ok());
  EXPECT_FALSE(ScanWalFile(path_).ok());

  mutated = *bytes;
  mutated[9] ^= 0x01;  // segment id byte, breaks the header CRC
  ASSERT_TRUE(AtomicWriteFile(path_, mutated).ok());
  EXPECT_FALSE(ScanWalFile(path_).ok());
}

TEST_F(WalTest, SyncedWriterSurvivesWithoutCleanClose) {
  // Simulates a crash: the writer is leaked-then-closed without any
  // explicit flush beyond the per-append fdatasync.
  auto writer = WalWriter::Create(path_, 1, true);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("durable").ok());
  auto scan = ScanWalFile(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, (std::vector<std::string>{"durable"}));
}

TEST_F(WalTest, LiveSegmentZeroTailScansClean) {
  auto writer = WalWriter::Create(path_, 1, true);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append("first").ok());
  ASSERT_TRUE(writer->Append("second").ok());
  // The live file is the preallocated chunk; the log ends at size_bytes().
  EXPECT_EQ(std::filesystem::file_size(path_), kWalChunkBytes);
  auto scan = ScanWalFile(path_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records, (std::vector<std::string>{"first", "second"}));
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_FALSE(scan->corrupt_record);
  EXPECT_EQ(scan->dropped_bytes, 0u);
  EXPECT_EQ(scan->valid_bytes, writer->size_bytes());
  EXPECT_EQ(scan->valid_bytes,
            SegmentBytes(1, {"first", "second"}).size());
}

TEST_F(WalTest, PartialFrameBeforeZerosIsTornTail) {
  const std::string intact = SegmentBytes(4, {"kept"});
  const std::string zeros(4096, '\0');
  // A frame cut short inside its payload, then the unwritten tail.
  const std::string cut = std::string("\x20\x00\x00\x00", 4) + "crc!part";
  // A frame of the right length whose payload never fully landed.
  const std::string unsynced =
      std::string("\x05\x00\x00\x00", 4) + "crc!" + std::string("ab\0\0\0", 5);
  for (const std::string& tail : {cut + zeros, unsynced + zeros, unsynced}) {
    const std::string image = intact + tail;
    auto scan = ScanWalSegment(image);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->records, (std::vector<std::string>{"kept"}));
    EXPECT_TRUE(scan->torn_tail);
    EXPECT_FALSE(scan->corrupt_record);
    EXPECT_EQ(scan->valid_bytes, intact.size());
    EXPECT_EQ(scan->dropped_bytes, image.size() - intact.size());
  }
}

TEST_F(WalTest, NonzeroByteAfterZerosIsCorruptNotEndOfLog) {
  const std::string intact = SegmentBytes(4, {"kept"});
  // Past a zero frame header (byte 8 on) and far into the tail.
  for (size_t at : {size_t{8}, size_t{9}, size_t{300}, size_t{4095}}) {
    std::string tail(4096, '\0');
    tail[at] = '\x01';
    const std::string image = intact + tail;
    auto scan = ScanWalSegment(image);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->records, (std::vector<std::string>{"kept"})) << at;
    EXPECT_TRUE(scan->corrupt_record) << at;
    EXPECT_FALSE(scan->torn_tail) << at;
    EXPECT_EQ(scan->valid_bytes, intact.size());
    EXPECT_EQ(scan->dropped_bytes, tail.size()) << at;
  }
}

TEST_F(WalTest, AppendStreamCrossingTheChunkRoundTrips) {
  std::vector<std::string> records;
  for (int i = 0; records.size() * 1000 < kWalChunkBytes + 100000; ++i) {
    records.push_back(std::string(992, static_cast<char>('a' + i % 26)) +
                      std::to_string(100000 + i));
  }
  {
    auto writer = WalWriter::Create(path_, 2, /*sync_each_append=*/false);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& record : records) {
      ASSERT_TRUE(writer->Append(record).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
    EXPECT_EQ(std::filesystem::file_size(path_), 2 * kWalChunkBytes);
    auto live = ScanWalFile(path_);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_EQ(live->records, records);
    EXPECT_EQ(live->valid_bytes, writer->size_bytes());
    EXPECT_EQ(live->dropped_bytes, 0u);
  }
  auto closed = ScanWalFile(path_);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->records, records);
  EXPECT_EQ(closed->valid_bytes, std::filesystem::file_size(path_));
}

TEST_F(WalTest, ClosedSegmentIsExactlyHeaderPlusFrames) {
  const std::vector<std::string> records = {"alpha", "", "gamma"};
  {
    auto writer = WalWriter::Create(path_, 7, true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& record : records) {
      ASSERT_TRUE(writer->Append(record).ok());
    }
  }
  auto scan = ScanWalFile(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(std::filesystem::file_size(path_), scan->valid_bytes);
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, SegmentBytes(7, records));

  // Move-assigning over a live writer closes (and trims) its segment too.
  const std::string other = dir_.File("wal-000008");
  auto first = WalWriter::Create(other, 8, true);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Append("only").ok());
  auto second = WalWriter::Create(dir_.File("wal-000009"), 9, true);
  ASSERT_TRUE(second.ok());
  *first = *std::move(second);
  auto trimmed = ReadFileToString(other);
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, SegmentBytes(8, {"only"}));
}

TEST_F(WalTest, OpenForAppendWritesOverALiveZeroTail) {
  auto live = WalWriter::Create(path_, 1, true);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->Append("live").ok());
  {
    auto writer =
        WalWriter::OpenForAppend(path_, 1, live->size_bytes(), true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append("appended").ok());
    // Nonzero bytes now follow the live writer's end: not a zero tail.
    EXPECT_TRUE(WalWriter::OpenForAppend(path_, 1, live->size_bytes(), true)
                    .status()
                    .IsFailedPrecondition());
  }
  auto scan = ScanWalFile(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, (std::vector<std::string>{"live", "appended"}));
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_FALSE(scan->corrupt_record);
}

}  // namespace
}  // namespace io
}  // namespace rvar
