// Copyright 2026 The rvar Authors.
//
// The on-disk snapshot container (DESIGN.md §7): a versioned, magic-tagged
// header followed by length-prefixed, CRC32-checksummed records. Writers
// buffer the whole file and persist it atomically (temp file + fsync +
// rename + directory fsync), so a snapshot on disk is either the complete
// previous generation or the complete new one — never a torn mix. Readers
// validate the header and every record checksum up front and classify the
// first defect found, so callers (RecoveryManager) can fall back to an
// older generation with exact per-reason accounting.

#ifndef RVAR_IO_SNAPSHOT_H_
#define RVAR_IO_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace rvar {
namespace io {

/// Current snapshot container format version. Readers accept exactly this
/// version; bumping it is how incompatible layout changes are rolled out
/// (version skew yields a clean Status, never a misparse).
inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// \brief What kind of payload a snapshot holds. Stored in the header so a
/// file saved as one type can never be silently decoded as another.
enum class PayloadKind : uint32_t {
  kShapeLibrary = 1,
  kGbdtClassifier = 2,
  kRandomForestClassifier = 3,
  kRandomForestRegressor = 4,
  kFeaturizerState = 5,
  kTelemetryStore = 6,
  kServingState = 7,
  kModelManifest = 8,
  kActivePointer = 9,
  kShapeServiceState = 10,
  kKllSketch = 11,
};

/// \brief The first defect a snapshot validator encountered; kNone for an
/// intact file. Mirrors the TelemetryStore quarantine-reason style so
/// recovery can report exact per-reason counts.
enum class SnapshotDefect : int {
  kNone = 0,
  kShortHeader,          ///< fewer bytes than a header
  kBadMagic,             ///< not a snapshot file
  kBadVersion,           ///< format version this build cannot read
  kHeaderCrcMismatch,    ///< header bytes corrupted
  kWrongPayloadKind,     ///< intact, but holds a different payload type
  kTornRecord,           ///< record length overruns the file (torn write)
  kRecordCrcMismatch,    ///< record payload corrupted
  kRecordCountMismatch,  ///< fewer records than the header promises
  kTrailingGarbage,      ///< bytes after the last promised record
};
inline constexpr int kNumSnapshotDefects = 10;
const char* SnapshotDefectName(SnapshotDefect defect);

/// \brief Accumulates records and writes the container atomically.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(PayloadKind kind) : kind_(kind) {}

  /// Appends one checksummed record.
  void AddRecord(std::string_view payload);

  size_t num_records() const { return records_.size(); }

  /// The complete file image (header + records).
  std::string Finish() const;

  /// Writes Finish() to `path` atomically: temp file in the same
  /// directory, fsync, rename over the target, fsync the directory.
  Status WriteFile(const std::string& path) const;

 private:
  PayloadKind kind_;
  std::vector<std::string> records_;
};

/// \brief Validates and exposes the records of one snapshot image.
///
/// Open() never crashes on hostile bytes: every parse is bounds-checked
/// and every failure returns a Status naming the defect (also stored in
/// `*defect` when non-null, for per-reason recovery accounting).
class SnapshotReader {
 public:
  /// Takes ownership of the file image, validates the header and every
  /// record checksum. `expected_kind` guards against decoding a snapshot
  /// as the wrong type.
  static Result<SnapshotReader> Open(std::string bytes,
                                     PayloadKind expected_kind,
                                     SnapshotDefect* defect = nullptr);

  PayloadKind payload_kind() const { return kind_; }
  size_t num_records() const { return records_.size(); }

  /// Record `i`'s payload (checksum already verified); fails on
  /// out-of-range index.
  Result<std::string_view> Record(size_t i) const;

 private:
  SnapshotReader() = default;

  std::string bytes_;
  PayloadKind kind_ = PayloadKind::kShapeLibrary;
  std::vector<std::pair<size_t, size_t>> records_;  ///< offset, length
};

/// Writes `bytes` to `path` via temp file + fsync + rename + directory
/// fsync, so the target is never observed half-written.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// Reads a whole file; NotFound if it does not exist.
Result<std::string> ReadFileToString(const std::string& path);

/// `<prefix><number>` with the number zero-padded to six digits: the name
/// of snapshot generations, WAL segments and registry versions.
std::string NumberedFileName(const char* prefix, int64_t number);

/// Inverse of NumberedFileName for a directory listing: the number of a
/// `<prefix><digits>` name, or -1 when the name does not match or its
/// digits overflow int64.
int64_t ParseNumberedFileName(const std::string& name, const char* prefix);

}  // namespace io
}  // namespace rvar

#endif  // RVAR_IO_SNAPSHOT_H_
