#include "io/recovery.h"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/strings.h"
#include "io/codec.h"
#include "io/serialize.h"
#include "obs/export.h"

namespace rvar {
namespace io {
namespace {

namespace fs = std::filesystem;

/// Cached handles into the process registry (obs/metrics.h). Recovery
/// reasons are mirrored into labeled counters so a fleet can alert on
/// corruption rates without parsing RecoveryReport strings.
struct RecoveryMetrics {
  rvar::obs::Counter* wal_appends_total;
  rvar::obs::Counter* wal_append_bytes_total;
  rvar::obs::Counter* checkpoints_total;
  rvar::obs::Counter* snapshot_bytes_total;
  rvar::obs::Counter* recover_total;
  rvar::obs::Counter* wal_records_replayed_total;
  rvar::obs::Counter* wal_bytes_truncated_total;
  rvar::obs::Counter* snapshots_discarded_total;
  rvar::obs::Histogram* checkpoint_latency;
  rvar::obs::Counter* reasons[kNumRecoveryReasons];

  static const RecoveryMetrics& Get() {
    static const RecoveryMetrics metrics = [] {
      rvar::obs::Registry& r = rvar::obs::Registry::Default();
      RecoveryMetrics m{
          r.GetCounter("recovery_wal_appends_total"),
          r.GetCounter("recovery_wal_append_bytes_total"),
          r.GetCounter("recovery_checkpoints_total"),
          r.GetCounter("recovery_snapshot_bytes_total"),
          r.GetCounter("recovery_recover_total"),
          r.GetCounter("recovery_wal_records_replayed_total"),
          r.GetCounter("recovery_wal_bytes_truncated_total"),
          r.GetCounter("recovery_snapshots_discarded_total"),
          r.GetHistogram("recovery_checkpoint_latency_seconds"),
          {}};
      for (int i = 0; i < kNumRecoveryReasons; ++i) {
        m.reasons[i] =
            r.GetCounter("recovery_reason_total", "reason",
                         RecoveryReasonName(static_cast<RecoveryReason>(i)));
      }
      return m;
    }();
    return metrics;
  }
};

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kWalPrefix[] = "wal-";

void RemoveQuietly(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);  // best-effort; a leftover file is re-pruned later
}

/// One observation as framed in the WAL.
struct WalObservation {
  uint64_t seq = 0;
  int group_id = 0;
  double value = 0.0;
};

std::string EncodeObservation(uint64_t seq, int group_id, double value) {
  BinaryWriter w;
  w.PutU64(seq);
  w.PutI32(group_id);
  w.PutDouble(value);
  return w.TakeBytes();
}

/// Fails on a malformed frame and on an observation that breaks the
/// boundary rule (core::CheckObservation), which Observe never logs.
Result<WalObservation> DecodeObservation(std::string_view payload) {
  BinaryReader r(payload);
  WalObservation obs;
  RVAR_ASSIGN_OR_RETURN(obs.seq, r.ReadU64());
  RVAR_ASSIGN_OR_RETURN(obs.group_id, r.ReadI32());
  RVAR_ASSIGN_OR_RETURN(obs.value, r.ReadDouble());
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        StrCat("observation record has ", r.remaining(), " trailing bytes"));
  }
  RVAR_RETURN_NOT_OK(core::CheckObservation(obs.group_id, obs.value));
  return obs;
}

/// Decoded serving-state snapshot plus its recovery metadata.
struct DecodedState {
  ServingState state;
  /// The log theta table the restored trackers share.
  std::shared_ptr<const core::ClusterLogPmf> log_pmf;
  uint64_t watermark = 0;
  uint64_t next_wal_segment = 0;
};

/// The decay the serving-state header records. The trackers' sums never
/// decay, so the header holds 1.0 (and the floor core::kPmfFloor): fields
/// kept so every persisted byte matches images written while both were
/// settable. A header holding any other value is refused.
constexpr double kHeaderDecay = 1.0;

// Serving-state snapshot layout (PayloadKind::kServingState):
//   record 0: watermark seq, next WAL segment id, decay (kHeaderDecay),
//             floor (core::kPmfFloor), tracker count
//   record 1: the full shape-library snapshot image, nested verbatim
//   record 2..: one per-group record each (serialize.h EncodeGroupRecord,
//               the same record the kShapeServiceState image holds)
Result<DecodedState> DecodeServingState(std::string bytes) {
  RVAR_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(std::move(bytes), PayloadKind::kServingState));
  if (reader.num_records() < 2) {
    return Status::InvalidArgument(
        StrCat("serving-state snapshot holds ", reader.num_records(),
               " records, layout needs at least 2"));
  }
  DecodedState decoded;
  double decay = 0.0;
  double pmf_floor = 0.0;
  uint64_t num_trackers = 0;
  {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(0));
    BinaryReader r(rec);
    RVAR_ASSIGN_OR_RETURN(decoded.watermark, r.ReadU64());
    RVAR_ASSIGN_OR_RETURN(decoded.next_wal_segment, r.ReadU64());
    RVAR_ASSIGN_OR_RETURN(decay, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(pmf_floor, r.ReadDouble());
    RVAR_ASSIGN_OR_RETURN(num_trackers, r.ReadU64());
    if (!r.AtEnd()) {
      return Status::InvalidArgument("serving-state header has trailing bytes");
    }
  }
  if (decay != kHeaderDecay || pmf_floor != core::kPmfFloor) {
    return Status::InvalidArgument(
        StrCat("serving-state header holds decay ", decay, " and floor ",
               pmf_floor, "; only ", kHeaderDecay, " and ", core::kPmfFloor,
               " restore"));
  }
  if (reader.num_records() != num_trackers + 2) {
    return Status::InvalidArgument(
        StrCat("snapshot promises ", num_trackers, " trackers but holds ",
               reader.num_records(), " records"));
  }
  {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec, reader.Record(1));
    RVAR_ASSIGN_OR_RETURN(core::ShapeLibrary library,
                          DecodeShapeLibrary(std::string(rec)));
    decoded.state.library =
        std::make_unique<core::ShapeLibrary>(std::move(library));
  }
  // One log theta table shared by every restored tracker (the same
  // sharing ShapeService uses; per-tracker copies would cost ~13 KB each).
  decoded.log_pmf = core::ClusterLogPmf::MakeShared(*decoded.state.library);
  for (uint64_t i = 0; i < num_trackers; ++i) {
    RVAR_ASSIGN_OR_RETURN(std::string_view rec,
                          reader.Record(static_cast<size_t>(i) + 2));
    RVAR_ASSIGN_OR_RETURN(core::GroupState group, DecodeGroupRecord(rec));
    const int gid = group.group_id;
    RVAR_ASSIGN_OR_RETURN(core::OnlineShapeTracker tracker,
                          core::OnlineShapeTracker::Make(
                              decoded.state.library.get(), decoded.log_pmf));
    RVAR_RETURN_NOT_OK(tracker.RestoreState(std::move(group)));
    if (!decoded.state.trackers.emplace(gid, std::move(tracker)).second) {
      return Status::InvalidArgument(
          StrCat("group ", gid, " appears twice in the snapshot"));
    }
  }
  return decoded;
}

}  // namespace

const char* RecoveryReasonName(RecoveryReason reason) {
  switch (reason) {
    case RecoveryReason::kSnapshotCorrupt:
      return "snapshot-corrupt";
    case RecoveryReason::kWalSegmentCorrupt:
      return "wal-segment-corrupt";
    case RecoveryReason::kWalTornTail:
      return "wal-torn-tail";
    case RecoveryReason::kWalCorruptRecord:
      return "wal-corrupt-record";
    case RecoveryReason::kWalBadPayload:
      return "wal-bad-payload";
    case RecoveryReason::kWalDuplicate:
      return "wal-duplicate";
    case RecoveryReason::kWalReordered:
      return "wal-reordered";
    case RecoveryReason::kWalStale:
      return "wal-stale";
  }
  return "unknown";
}

std::string RecoveryReport::ToString() const {
  std::string out = StrCat("recovered generation ", snapshot_generation,
                           ", applied ", wal_records_applied,
                           " WAL records from ", num_wal_segments_scanned,
                           " segments");
  for (int i = 0; i < kNumRecoveryReasons; ++i) {
    if (counts[static_cast<size_t>(i)] == 0) continue;
    out += StrCat("; ", RecoveryReasonName(static_cast<RecoveryReason>(i)),
                  "=", counts[static_cast<size_t>(i)]);
  }
  if (wal_bytes_truncated > 0) {
    out += StrCat("; truncated ", wal_bytes_truncated, " bytes");
  }
  return out;
}

Result<RecoveryManager> RecoveryManager::Open(const std::string& dir) {
  return Open(dir, Options());
}

Result<RecoveryManager> RecoveryManager::Open(const std::string& dir,
                                              const Options& options) {
  if (options.keep_snapshots < 1) {
    return Status::InvalidArgument("keep_snapshots must be >= 1");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(
        StrCat("cannot create ", dir, ": ", ec.message()));
  }
  RecoveryManager manager(dir, options);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (int64_t gen = ParseNumberedFileName(name, kSnapshotPrefix);
        gen >= 0) {
      manager.snapshot_generations_.push_back(gen);
    } else if (int64_t seg = ParseNumberedFileName(name, kWalPrefix);
               seg >= 0) {
      manager.wal_segments_.push_back(static_cast<uint64_t>(seg));
    }
  }
  if (ec) {
    return Status::IOError(StrCat("cannot list ", dir, ": ", ec.message()));
  }
  std::sort(manager.snapshot_generations_.begin(),
            manager.snapshot_generations_.end());
  std::sort(manager.wal_segments_.begin(), manager.wal_segments_.end());
  if (!manager.snapshot_generations_.empty()) {
    manager.latest_generation_ = manager.snapshot_generations_.back();
  }
  uint64_t max_seg = 0;
  if (!manager.wal_segments_.empty()) max_seg = manager.wal_segments_.back();
  manager.next_segment_id_ =
      std::max<uint64_t>(max_seg,
                         static_cast<uint64_t>(std::max<int64_t>(
                             manager.latest_generation_, 0))) +
      1;
  return manager;
}

std::string RecoveryManager::SnapshotPath(int64_t gen) const {
  return StrCat(dir_, "/", NumberedFileName(kSnapshotPrefix, gen));
}

std::string RecoveryManager::WalPath(uint64_t segment) const {
  return StrCat(dir_, "/",
                NumberedFileName(kWalPrefix, static_cast<int64_t>(segment)));
}

Status RecoveryManager::Bootstrap(core::ShapeLibrary library) {
  if (live_) {
    return Status::FailedPrecondition("manager already holds live state");
  }
  if (HasState()) {
    return Status::FailedPrecondition(
        StrCat(dir_, " already holds ", snapshot_generations_.size(),
               " snapshot generations; Recover() them instead"));
  }
  state_.library = std::make_unique<core::ShapeLibrary>(std::move(library));
  state_.trackers.clear();
  log_pmf_ = core::ClusterLogPmf::MakeShared(*state_.library);
  last_seq_ = 0;
  live_ = true;
  const Status checkpoint = Checkpoint();
  if (!checkpoint.ok()) live_ = false;
  return checkpoint;
}

Result<RecoveryReport> RecoveryManager::Recover() {
  rvar::obs::ScopedSpan span("recovery/recover");
  if (snapshot_generations_.empty()) {
    return Status::NotFound(StrCat(dir_, " holds no snapshot generation"));
  }
  RecoveryReport report;

  // Newest intact generation wins; provably corrupt newer generations are
  // deleted so they cannot shadow the next checkpoint.
  DecodedState decoded;
  int64_t loaded_gen = -1;
  for (auto it = snapshot_generations_.rbegin();
       it != snapshot_generations_.rend(); ++it) {
    Result<std::string> bytes = ReadFileToString(SnapshotPath(*it));
    if (bytes.ok()) {
      Result<DecodedState> attempt = DecodeServingState(
          *std::move(bytes));
      if (attempt.ok()) {
        decoded = *std::move(attempt);
        loaded_gen = *it;
        break;
      }
    }
    ++report.counts[static_cast<size_t>(RecoveryReason::kSnapshotCorrupt)];
    ++report.num_snapshots_discarded;
    RemoveQuietly(SnapshotPath(*it));
  }
  if (loaded_gen < 0) {
    return Status::IOError(
        StrCat("all ", report.num_snapshots_discarded,
               " snapshot generations in ", dir_, " are corrupt"));
  }
  snapshot_generations_.erase(
      std::remove_if(snapshot_generations_.begin(),
                     snapshot_generations_.end(),
                     [&](int64_t g) { return g > loaded_gen; }),
      snapshot_generations_.end());
  state_ = std::move(decoded.state);
  log_pmf_ = std::move(decoded.log_pmf);
  latest_generation_ = loaded_gen;
  first_segment_after_[loaded_gen] = decoded.next_wal_segment;
  report.snapshot_generation = loaded_gen;

  // Replay the WAL: scan every surviving segment in id order, heal torn
  // or corrupt tails on disk, and buffer records keyed by sequence number
  // so duplicates and reorderings collapse deterministically.
  std::map<uint64_t, WalObservation> pending;
  uint64_t max_seq_seen = 0;
  std::vector<uint64_t> dead_segments;
  for (uint64_t seg : wal_segments_) {
    Result<WalScanResult> scan = ScanWalFile(WalPath(seg));
    ++report.num_wal_segments_scanned;
    if (!scan.ok()) {
      // Header unusable: nothing in the file can be trusted.
      ++report.counts[static_cast<size_t>(
          RecoveryReason::kWalSegmentCorrupt)];
      RemoveQuietly(WalPath(seg));
      dead_segments.push_back(seg);
      continue;
    }
    const WalScanResult& result = *scan;
    if (result.torn_tail) {
      ++report.counts[static_cast<size_t>(RecoveryReason::kWalTornTail)];
    }
    if (result.corrupt_record) {
      ++report.counts[static_cast<size_t>(
          RecoveryReason::kWalCorruptRecord)];
    }
    if (result.dropped_bytes > 0) {
      RVAR_RETURN_NOT_OK(TruncateFile(WalPath(seg), result.valid_bytes));
      report.wal_bytes_truncated +=
          static_cast<int64_t>(result.dropped_bytes);
    }
    for (const std::string& record : result.records) {
      Result<WalObservation> obs = DecodeObservation(record);
      if (!obs.ok()) {
        ++report.counts[static_cast<size_t>(
            RecoveryReason::kWalBadPayload)];
        continue;
      }
      if (obs->seq <= decoded.watermark) {
        ++report.counts[static_cast<size_t>(RecoveryReason::kWalStale)];
        continue;
      }
      if (pending.count(obs->seq) != 0) {
        ++report.counts[static_cast<size_t>(RecoveryReason::kWalDuplicate)];
        continue;
      }
      if (obs->seq < max_seq_seen) {
        ++report.counts[static_cast<size_t>(RecoveryReason::kWalReordered)];
      }
      max_seq_seen = std::max(max_seq_seen, obs->seq);
      pending.emplace(obs->seq, *obs);
    }
  }
  for (uint64_t seg : dead_segments) {
    wal_segments_.erase(
        std::remove(wal_segments_.begin(), wal_segments_.end(), seg),
        wal_segments_.end());
  }

  last_seq_ = std::max(decoded.watermark, max_seq_seen);
  live_ = true;
  for (const auto& [seq, obs] : pending) {
    RVAR_RETURN_NOT_OK(ApplyObservation(obs.group_id, obs.value));
  }
  report.wal_records_applied = static_cast<int64_t>(pending.size());

  const RecoveryMetrics& metrics = RecoveryMetrics::Get();
  metrics.recover_total->Increment();
  metrics.wal_records_replayed_total->Increment(report.wal_records_applied);
  metrics.wal_bytes_truncated_total->Increment(report.wal_bytes_truncated);
  metrics.snapshots_discarded_total->Increment(report.num_snapshots_discarded);
  for (int i = 0; i < kNumRecoveryReasons; ++i) {
    const int64_t n = report.counts[static_cast<size_t>(i)];
    if (n > 0) metrics.reasons[i]->Increment(n);
  }

  // Post-recovery appends go to a fresh segment; the replayed ones stay
  // until the next checkpoint prunes them.
  RVAR_RETURN_NOT_OK(RotateWal());
  return report;
}

Status RecoveryManager::ApplyObservation(int group_id, double value) {
  auto it = state_.trackers.find(group_id);
  if (it == state_.trackers.end()) {
    RVAR_ASSIGN_OR_RETURN(
        core::OnlineShapeTracker tracker,
        core::OnlineShapeTracker::Make(state_.library.get(), log_pmf_));
    it = state_.trackers.emplace(group_id, std::move(tracker)).first;
  }
  it->second.Observe(value);
  return Status::OK();
}

Status RecoveryManager::Observe(int group_id, double normalized_runtime) {
  if (!live_ || wal_ == nullptr) {
    return Status::FailedPrecondition(
        "Observe requires live state (Bootstrap() or Recover() first)");
  }
  RVAR_RETURN_NOT_OK(core::CheckObservation(group_id, normalized_runtime));
  const uint64_t seq = last_seq_ + 1;
  const std::string record =
      EncodeObservation(seq, group_id, normalized_runtime);
  RVAR_RETURN_NOT_OK(wal_->Append(record));
  const RecoveryMetrics& metrics = RecoveryMetrics::Get();
  metrics.wal_appends_total->Increment();
  metrics.wal_append_bytes_total->Increment(
      static_cast<int64_t>(record.size()));
  last_seq_ = seq;
  return ApplyObservation(group_id, normalized_runtime);
}

Status RecoveryManager::WriteSnapshot(int64_t generation,
                                      uint64_t next_wal_segment) {
  SnapshotWriter snap(PayloadKind::kServingState);
  {
    BinaryWriter w;
    w.PutU64(last_seq_);
    w.PutU64(next_wal_segment);
    w.PutDouble(kHeaderDecay);
    w.PutDouble(core::kPmfFloor);
    w.PutU64(state_.trackers.size());
    snap.AddRecord(w.bytes());
  }
  snap.AddRecord(EncodeShapeLibrary(*state_.library));
  for (const auto& [gid, tracker] : state_.trackers) {
    snap.AddRecord(EncodeGroupRecord(tracker.ExportState(gid)));
  }
  const std::string image = snap.Finish();
  RecoveryMetrics::Get().snapshot_bytes_total->Increment(
      static_cast<int64_t>(image.size()));
  return AtomicWriteFile(SnapshotPath(generation), image);
}

Status RecoveryManager::RotateWal() {
  const uint64_t seg = next_segment_id_++;
  RVAR_ASSIGN_OR_RETURN(
      WalWriter writer,
      WalWriter::Create(WalPath(seg), seg, /*sync_each_append=*/true));
  wal_ = std::make_unique<WalWriter>(std::move(writer));
  wal_segments_.push_back(seg);
  return Status::OK();
}

void RecoveryManager::Prune() {
  while (snapshot_generations_.size() >
         static_cast<size_t>(options_.keep_snapshots)) {
    const int64_t gen = snapshot_generations_.front();
    RemoveQuietly(SnapshotPath(gen));
    snapshot_generations_.erase(snapshot_generations_.begin());
    first_segment_after_.erase(gen);
  }
  if (snapshot_generations_.empty()) return;
  // WAL segments older than the oldest kept generation's first segment
  // can never be replayed again. Generations whose metadata this process
  // never saw are left alone (pruned once checkpoints refresh the map).
  const auto it = first_segment_after_.find(snapshot_generations_.front());
  if (it == first_segment_after_.end()) return;
  const uint64_t oldest_needed = it->second;
  const uint64_t current = wal_ != nullptr ? wal_->segment_id() : 0;
  std::vector<uint64_t> kept;
  for (uint64_t seg : wal_segments_) {
    if (seg < oldest_needed && seg != current) {
      RemoveQuietly(WalPath(seg));
    } else {
      kept.push_back(seg);
    }
  }
  wal_segments_ = std::move(kept);
}

Status RecoveryManager::Checkpoint() {
  rvar::obs::ScopedSpan span("recovery/checkpoint");
  rvar::obs::ScopedLatencyTimer timer(
      RecoveryMetrics::Get().checkpoint_latency);
  if (!live_) {
    return Status::FailedPrecondition(
        "Checkpoint requires live state (Bootstrap() or Recover() first)");
  }
  RecoveryMetrics::Get().checkpoints_total->Increment();
  const int64_t generation = latest_generation_ + 1;
  RVAR_RETURN_NOT_OK(WriteSnapshot(generation, next_segment_id_));
  snapshot_generations_.push_back(generation);
  first_segment_after_[generation] = next_segment_id_;
  latest_generation_ = generation;
  RVAR_RETURN_NOT_OK(RotateWal());
  Prune();
  return Status::OK();
}

}  // namespace io
}  // namespace rvar
