#include "io/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "io/snapshot.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace io {
namespace {

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
  // explicit flush beyond the per-append fsync.
  auto writer = WalWriter::Create(path_, 1, true);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("durable").ok());
  auto scan = ScanWalFile(path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, (std::vector<std::string>{"durable"}));
}

}  // namespace
}  // namespace io
}  // namespace rvar
