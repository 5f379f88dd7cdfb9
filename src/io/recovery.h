// Copyright 2026 The rvar Authors.
//
// Crash-safe persistence for the serving state (DESIGN.md §7): the shape
// library plus the per-group online trackers that accumulate streaming
// observations (each tracker is the group's whole state: running sums and
// KLL sketch, core/online.h, at the system's one floor and sketch k; the
// snapshot header still records decay 1.0 and the floor, and Recover()
// treats a generation whose header holds other values as corrupt).
// Observations are appended to a checksummed
// WAL as they arrive; Checkpoint() writes a versioned snapshot generation
// atomically and rotates the WAL; Recover() rebuilds the state after a
// crash by loading the newest intact snapshot generation and replaying
// the WAL tail — truncating torn writes, dropping duplicated, reordered,
// stale and malformed records, and reporting exact per-reason counts of
// everything it repaired (mirroring the TelemetryStore quarantine
// accounting).

#ifndef RVAR_IO_RECOVERY_H_
#define RVAR_IO_RECOVERY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/online.h"
#include "core/shape_library.h"
#include "io/snapshot.h"
#include "io/wal.h"

namespace rvar {
namespace io {

/// \brief Why Recover() discarded or repaired something.
enum class RecoveryReason : int {
  kSnapshotCorrupt = 0,  ///< a snapshot generation failed validation
  kWalSegmentCorrupt,    ///< a segment header was unusable (whole file lost)
  kWalTornTail,          ///< a trailing partial record was truncated
  kWalCorruptRecord,     ///< a mid-file CRC mismatch dropped the rest
  kWalBadPayload,        ///< framed record held a malformed observation
  kWalDuplicate,         ///< same sequence number delivered twice
  kWalReordered,         ///< record arrived out of sequence order
  kWalStale,             ///< record already covered by the snapshot
};
inline constexpr int kNumRecoveryReasons = 8;
const char* RecoveryReasonName(RecoveryReason reason);

/// \brief Exact accounting of one Recover() pass.
struct RecoveryReport {
  /// Snapshot generation restored; -1 if recovery started from nothing.
  int64_t snapshot_generation = -1;
  /// Snapshot generations that failed validation and were skipped.
  int num_snapshots_discarded = 0;
  int num_wal_segments_scanned = 0;
  /// Observations replayed on top of the snapshot.
  int64_t wal_records_applied = 0;
  /// Bytes physically removed from torn or corrupt segment tails.
  int64_t wal_bytes_truncated = 0;
  std::array<int64_t, kNumRecoveryReasons> counts{};

  int64_t Count(RecoveryReason reason) const {
    return counts[static_cast<size_t>(reason)];
  }
  std::string ToString() const;
};

/// \brief The recoverable serving state: the shape library and the
/// per-group streaming trackers built on top of it.
struct ServingState {
  /// unique_ptr so the trackers' library pointer stays stable across
  /// moves of the ServingState itself.
  std::unique_ptr<core::ShapeLibrary> library;
  /// One tracker (sums, counters and sketch) per group, ordered by group
  /// id (deterministic checkpoint images).
  std::map<int, core::OnlineShapeTracker> trackers;
};

/// \brief Owns a state directory of snapshot generations and WAL segments.
///
/// Lifecycle: Open() the directory, then either Bootstrap() a fresh
/// library (first boot) or Recover() existing state; afterwards Observe()
/// appends observations durably and Checkpoint() compacts the WAL into a
/// new snapshot generation. Files are `snapshot-<generation>` and
/// `wal-<segment id>`, both zero-padded to six digits.
class RecoveryManager {
 public:
  struct Options {
    /// Snapshot generations retained after a checkpoint (>= 1). Older
    /// generations and the WAL segments they would replay are pruned.
    int keep_snapshots = 2;
  };

  /// Creates the directory if needed and scans it for existing files.
  static Result<RecoveryManager> Open(const std::string& dir,
                                      const Options& options);
  static Result<RecoveryManager> Open(const std::string& dir);

  RecoveryManager(RecoveryManager&&) = default;
  RecoveryManager& operator=(RecoveryManager&&) = default;

  /// True if the directory holds at least one snapshot generation.
  bool HasState() const { return !snapshot_generations_.empty(); }

  /// Installs a fresh library as the serving state and writes the first
  /// snapshot generation. Fails if the manager is already live.
  Status Bootstrap(core::ShapeLibrary library);

  /// Rebuilds the serving state from disk: newest intact snapshot
  /// generation plus the surviving WAL records. NotFound if the directory
  /// holds no snapshot; IOError if every generation is corrupt.
  Result<RecoveryReport> Recover();

  /// Durably logs one observation (every append is fdatasynced) and applies
  /// it to the group's tracker (created on first sight). Requires a live
  /// state. Inputs that break core::CheckObservation (negative group ids,
  /// non-finite runtimes) are rejected with InvalidArgument before the
  /// WAL append, as ShapeService::Observe rejects them; Recover counts a
  /// logged one as kWalBadPayload and skips it.
  Status Observe(int group_id, double normalized_runtime);

  /// Writes the next snapshot generation atomically, rotates the WAL, and
  /// prunes generations/segments beyond keep_snapshots.
  Status Checkpoint();

  /// The live state (library set after Bootstrap()/Recover()).
  const ServingState& state() const { return state_; }

  /// Sequence number of the last observation logged or replayed.
  uint64_t last_sequence() const { return last_seq_; }
  int64_t generation() const { return latest_generation_; }
  const std::string& dir() const { return dir_; }

  /// Path of snapshot generation `gen` / WAL segment `segment` in `dir`
  /// (exposed for fault-injection tests).
  std::string SnapshotPath(int64_t gen) const;
  std::string WalPath(uint64_t segment) const;

 private:
  RecoveryManager(std::string dir, const Options& options)
      : dir_(std::move(dir)), options_(options) {}

  Status WriteSnapshot(int64_t generation, uint64_t next_wal_segment);
  Status RotateWal();
  void Prune();
  /// Applies one observation to the group's tracker, creating it on first
  /// sight.
  Status ApplyObservation(int group_id, double value);

  std::string dir_;
  Options options_;
  ServingState state_;
  /// Log theta table shared by every tracker of the live state.
  std::shared_ptr<const core::ClusterLogPmf> log_pmf_;
  bool live_ = false;

  std::vector<int64_t> snapshot_generations_;  ///< ascending
  std::vector<uint64_t> wal_segments_;         ///< ascending
  /// generation -> id of the first WAL segment with post-snapshot
  /// observations (known for generations this process wrote or decoded).
  std::map<int64_t, uint64_t> first_segment_after_;

  int64_t latest_generation_ = 0;
  uint64_t next_segment_id_ = 1;
  uint64_t last_seq_ = 0;
  std::unique_ptr<WalWriter> wal_;
};

}  // namespace io
}  // namespace rvar

#endif  // RVAR_IO_RECOVERY_H_
