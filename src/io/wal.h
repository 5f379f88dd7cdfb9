// Copyright 2026 The rvar Authors.
//
// Write-ahead log segments (DESIGN.md §7). A segment is a fixed header
// (magic, format version, segment id, header CRC) followed by
// length-prefixed CRC32-checksummed records — the same framing as
// snapshots, but open-ended. The writer preallocates the file in
// kWalChunkBytes steps and writes each record in place at the end of the
// log, so a live segment (and the image a crash leaves) carries a zero
// tail past its last record; closing the writer trims that tail, so a
// cleanly closed segment is exactly header + records. The scanner reads an
// all-zero remainder as the end of the log, and reports a torn last
// append or a corrupt record so recovery can truncate it and keep every
// record before it. Payloads are opaque bytes here; the RecoveryManager
// defines the observation record layout on top.

#ifndef RVAR_IO_WAL_H_
#define RVAR_IO_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace rvar {
namespace io {

inline constexpr uint32_t kWalFormatVersion = 1;
/// Bytes of the segment header (magic + version + segment id + CRC).
inline constexpr size_t kWalHeaderSize = 20;
/// Preallocation step of a segment: Create reserves this many bytes, and
/// an append that would pass the reserved end reserves the next step.
inline constexpr uint64_t kWalChunkBytes = uint64_t{1} << 20;

/// \brief Outcome of scanning one WAL segment.
struct WalScanResult {
  uint64_t segment_id = 0;
  /// Record payloads of the intact prefix, in append order.
  std::vector<std::string> records;
  /// Length of the prefix (header + intact records) that parsed cleanly.
  /// Past it lies either nothing, an all-zero preallocated tail (the end
  /// of the log, nothing dropped) or the dropped bytes.
  uint64_t valid_bytes = 0;
  /// The last append was torn (crash mid-append): a frame that fails its
  /// length or CRC check with nothing but zeros after it was dropped.
  bool torn_tail = false;
  /// A bad frame with nonzero bytes after it ended the scan (bit rot or
  /// an overwrite); like RocksDB, everything from it on is dropped.
  bool corrupt_record = false;
  /// Bytes past valid_bytes that were dropped: 0, or the whole rest of
  /// the image. Recovery truncates the file to valid_bytes when nonzero.
  uint64_t dropped_bytes = 0;
};

/// Parses a segment image. Fails (with IOError) only when the header
/// itself is present but unusable — bad magic, unreadable version, header
/// checksum mismatch — meaning nothing in the file can be trusted. A
/// short header (file shorter than kWalHeaderSize) is reported as a torn
/// empty segment, not an error. At each record boundary an all-zero
/// remainder ends the log cleanly; no valid frame starts with 8 zero bytes,
/// since even an empty payload's masked CRC is nonzero.
Result<WalScanResult> ScanWalSegment(std::string_view bytes);

/// Reads and scans a segment file.
Result<WalScanResult> ScanWalFile(const std::string& path);

/// \brief Writes checksummed records in place into one preallocated
/// segment file.
class WalWriter {
 public:
  /// Creates `path` (truncating any existing file), writes the segment
  /// header, preallocates kWalChunkBytes, and makes the file and its
  /// directory entry durable (fsync of both). With `sync_each_append`,
  /// every Append is followed by fdatasync — the durability contract the
  /// torn-tail recovery test relies on.
  static Result<WalWriter> Create(const std::string& path,
                                  uint64_t segment_id, bool sync_each_append);

  /// Reopens an existing segment and writes from byte `expected_size` on.
  /// The caller must have scanned it and truncated any torn tail first:
  /// the file must be `expected_size` bytes long, or longer with nothing
  /// but zeros past it (a live or crashed preallocated segment); anything
  /// else is FailedPrecondition, which guards against appending after an
  /// unhealed tear.
  static Result<WalWriter> OpenForAppend(const std::string& path,
                                         uint64_t segment_id,
                                         uint64_t expected_size,
                                         bool sync_each_append);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  /// Trims the unwritten preallocated tail (when the file still has the
  /// size this writer gave it) and closes the file.
  ~WalWriter();

  /// Writes one framed record at the end of the log, preallocating the
  /// next chunk first if the frame would pass the reserved end (and
  /// fdatasyncs, per the sync policy).
  Status Append(std::string_view payload);

  /// Forces written records to disk (fdatasync).
  Status Sync();

  uint64_t segment_id() const { return segment_id_; }
  /// End of the log (header + records); while the writer is open the
  /// file itself is longer by the preallocated zero tail.
  uint64_t size_bytes() const { return size_bytes_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(int fd, std::string path, uint64_t segment_id,
            uint64_t size_bytes, uint64_t allocated_bytes,
            bool sync_each_append)
      : fd_(fd),
        path_(std::move(path)),
        segment_id_(segment_id),
        size_bytes_(size_bytes),
        allocated_bytes_(allocated_bytes),
        sync_each_append_(sync_each_append) {}

  /// Extends the file with zeros to the first chunk multiple >= `end`.
  Status Reserve(uint64_t end);
  /// Trims the preallocated tail and closes the file (no-op if closed).
  void Close();

  int fd_ = -1;
  std::string path_;
  uint64_t segment_id_ = 0;
  /// End of the log: header + records written so far.
  uint64_t size_bytes_ = 0;
  /// File size this writer set by preallocating (>= size_bytes_).
  uint64_t allocated_bytes_ = 0;
  bool sync_each_append_ = true;
  /// Frame buffer reused across appends.
  std::string frame_;
};

/// Shrinks `path` to `new_size` bytes (torn-tail healing).
Status TruncateFile(const std::string& path, uint64_t new_size);

}  // namespace io
}  // namespace rvar

#endif  // RVAR_IO_WAL_H_
