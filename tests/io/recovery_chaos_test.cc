// Kill-and-restart chaos test (the PR's acceptance criterion): run a
// serving pipeline, checkpoint mid-stream, "crash" it, corrupt the WAL
// tail and the newest snapshot generation, then Recover() and require the
// rebuilt state to be bit-identical to a twin pipeline that never crashed.
// Labeled `chaos` in ctest; intended to also run under -DRVAR_SANITIZE=ON.

#include "io/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/normalization.h"
#include "core/shape_library.h"
#include "io/codec.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "io/wal.h"
#include "sim/faults.h"
#include "sim/telemetry.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace io {
namespace {

core::ShapeLibrary MakeLibrary(uint64_t seed) {
  sim::TelemetryStore store;
  core::GroupMedians medians;
  Rng rng(seed);
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

struct Observation {
  int group_id;
  double value;
};

// The full observation stream both pipelines see, in order. Seq i+1 is
// stream[i].
std::vector<Observation> MakeStream(int n, uint64_t seed) {
  std::vector<Observation> stream;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    stream.push_back({static_cast<int>(rng.UniformInt(0, 9)),
                      rng.Uniform(0.2, 5.0)});
  }
  return stream;
}

// WAL payload framing must match recovery.cc's EncodeObservation.
std::string FrameObservation(uint64_t seq, const Observation& obs) {
  BinaryWriter w;
  w.PutU64(seq);
  w.PutI32(obs.group_id);
  w.PutDouble(obs.value);
  return w.TakeBytes();
}

void ExpectStatesBitIdentical(const ServingState& reference,
                              const ServingState& recovered) {
  ASSERT_NE(reference.library, nullptr);
  ASSERT_NE(recovered.library, nullptr);
  EXPECT_EQ(EncodeShapeLibrary(*reference.library),
            EncodeShapeLibrary(*recovered.library))
      << "recovered library differs from the never-crashed run";
  ASSERT_EQ(recovered.trackers.size(), reference.trackers.size());
  for (const auto& [gid, tracker] : reference.trackers) {
    auto it = recovered.trackers.find(gid);
    ASSERT_NE(it, recovered.trackers.end()) << "group " << gid;
    EXPECT_EQ(it->second.count(), tracker.count()) << "group " << gid;
    EXPECT_EQ(it->second.num_clamped(), tracker.num_clamped());
    // Exact double equality: replay must reproduce the arithmetic, not
    // approximate it.
    EXPECT_EQ(it->second.ExportState(gid).log_likelihood,
              tracker.ExportState(gid).log_likelihood)
        << "group " << gid;
    // The per-group quantile sketch must survive the crash bit-for-bit
    // too: identical wire encodings, not merely close quantiles.
    EXPECT_EQ(EncodeKllSketch(it->second.sketch()),
              EncodeKllSketch(tracker.sketch()))
        << "group " << gid << " sketch diverged across recovery";
    EXPECT_EQ(it->second.sketch().n(), tracker.sketch().n())
        << "group " << gid;
  }
}

class RecoveryChaosTest : public ::testing::Test {
 protected:
  UniqueTempDir dir_;
  const std::string root_ = dir_.str();
};

TEST_F(RecoveryChaosTest, KillAndRestartMatchesNeverCrashedRun) {
  constexpr int kObservations = 40;  // logged before the crash
  const core::ShapeLibrary library = MakeLibrary(7);
  const std::vector<Observation> stream =
      MakeStream(kObservations + 2, 13);
  RecoveryManager::Options options;
  options.keep_snapshots = 2;

  // --- Reference pipeline: never crashes, sees the whole stream. -----------
  auto reference = RecoveryManager::Open(root_ + "/reference", options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->Bootstrap(library).ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(
        reference->Observe(stream[i].group_id, stream[i].value).ok());
    if (i + 1 == kObservations / 2) {
      ASSERT_TRUE(reference->Checkpoint().ok());
    }
  }

  // --- Victim pipeline: same library, same stream prefix, then killed. ----
  const std::string dir = root_ + "/victim";
  uint64_t live_segment = 0;
  {
    auto victim = RecoveryManager::Open(dir, options);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    ASSERT_TRUE(victim->Bootstrap(library).ok());
    for (int i = 0; i < kObservations; ++i) {
      ASSERT_TRUE(
          victim->Observe(stream[i].group_id, stream[i].value).ok());
      if (i + 1 == kObservations / 2) {
        ASSERT_TRUE(victim->Checkpoint().ok());
      }
    }
    live_segment = 2;  // Bootstrap -> seg 1, mid-stream Checkpoint -> seg 2
    EXPECT_EQ(victim->generation(), 2);
    // The victim goes out of scope here with no clean shutdown: every
    // Append already hit fdatasync, which is all the durability it gets.
  }

  const std::string wal_path = dir + "/wal-000002";
  const std::string snap_path = dir + "/snapshot-000002";
  ASSERT_TRUE(std::filesystem::exists(wal_path));
  ASSERT_TRUE(std::filesystem::exists(snap_path));

  // --- Corruption: a hostile filesystem finishes the crash. ---------------
  // 1. The last two observations reach the WAL out of order, and one
  //    earlier record is delivered twice.
  {
    const uint64_t size = std::filesystem::file_size(wal_path);
    auto writer =
        WalWriter::OpenForAppend(wal_path, live_segment, size, true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        writer
            ->Append(FrameObservation(kObservations + 2,
                                      stream[kObservations + 1]))
            .ok());
    ASSERT_TRUE(
        writer
            ->Append(FrameObservation(kObservations + 1,
                                      stream[kObservations]))
            .ok());
    ASSERT_TRUE(writer
                    ->Append(FrameObservation(kObservations,
                                              stream[kObservations - 1]))
                    .ok());  // duplicate of the last pre-crash record
  }
  // 2. A torn half-written record at the tail.
  {
    std::ofstream out(wal_path, std::ios::binary | std::ios::app);
    out << std::string("\x40\x00\x00\x00torn", 8);
  }
  // 3. The newest snapshot generation takes a bit flip.
  {
    auto bytes = ReadFileToString(snap_path);
    ASSERT_TRUE(bytes.ok());
    const sim::StorageFaultPlan faults(99);
    ASSERT_TRUE(
        AtomicWriteFile(snap_path, faults.FlipBits(*bytes, 3)).ok());
  }

  // --- Restart and recover. -----------------------------------------------
  auto revived = RecoveryManager::Open(dir, options);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  ASSERT_TRUE(revived->HasState());
  auto report = revived->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Exact per-reason accounting of everything the recovery repaired.
  EXPECT_EQ(report->snapshot_generation, 1);  // gen 2 was corrupt
  EXPECT_EQ(report->num_snapshots_discarded, 1);
  EXPECT_EQ(report->Count(RecoveryReason::kSnapshotCorrupt), 1);
  EXPECT_EQ(report->Count(RecoveryReason::kWalReordered), 1);
  EXPECT_EQ(report->Count(RecoveryReason::kWalDuplicate), 1);
  EXPECT_EQ(report->Count(RecoveryReason::kWalTornTail), 1);
  EXPECT_EQ(report->Count(RecoveryReason::kWalStale), 0);
  EXPECT_EQ(report->Count(RecoveryReason::kWalBadPayload), 0);
  EXPECT_EQ(report->wal_records_applied, kObservations + 2);
  EXPECT_GT(report->wal_bytes_truncated, 0);
  EXPECT_EQ(revived->last_sequence(),
            static_cast<uint64_t>(kObservations + 2));

  ExpectStatesBitIdentical(reference->state(), revived->state());

  // The revived pipeline keeps working: observe, checkpoint, recover again.
  ASSERT_TRUE(revived->Observe(3, 1.25).ok());
  ASSERT_TRUE(revived->Checkpoint().ok());
  auto reopened = RecoveryManager::Open(dir, options);
  ASSERT_TRUE(reopened.ok());
  auto clean = reopened->Recover();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->num_snapshots_discarded, 0);
  ExpectStatesBitIdentical(revived->state(), reopened->state());
}

// The boundary rule ShapeService::Observe applies holds for durable writes
// too: a negative group id or a non-finite runtime is refused before the
// WAL append, and one that reaches the WAL anyway is dropped on replay as
// a bad payload instead of creating a group no restore could load.
TEST_F(RecoveryChaosTest, ObserveAndReplayRejectWhatTheServiceRejects) {
  const std::string dir = root_ + "/boundary";
  {
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    ASSERT_TRUE(manager->Bootstrap(MakeLibrary(11)).ok());
    ASSERT_TRUE(manager->Observe(2, 1.5).ok());
    const Status negative = manager->Observe(-3, 1.0);
    EXPECT_TRUE(negative.IsInvalidArgument()) << negative.ToString();
    EXPECT_NE(negative.message().find("group_id"), std::string::npos);
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
      const Status status = manager->Observe(2, bad);
      EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    }
    // Nothing rejected was logged or applied.
    EXPECT_EQ(manager->last_sequence(), 1u);
    ASSERT_EQ(manager->state().trackers.size(), 1u);
    EXPECT_EQ(manager->state().trackers.at(2).count(), 1);
    EXPECT_EQ(manager->state().trackers.at(2).num_clamped(), 0);

    // Hand-frame the probe's two inputs into the live segment (Bootstrap
    // opened segment 1), between two valid records. The live segment is
    // preallocated, so they go at the end of its log, not of the file.
    const std::string wal_path = manager->WalPath(1);
    auto scan = ScanWalFile(wal_path);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    auto writer =
        WalWriter::OpenForAppend(wal_path, 1, scan->valid_bytes, true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(FrameObservation(2, {-3, 1.0})).ok());
    ASSERT_TRUE(
        writer
            ->Append(FrameObservation(
                3, {2, std::numeric_limits<double>::quiet_NaN()}))
            .ok());
    ASSERT_TRUE(writer->Append(FrameObservation(4, {2, 2.5})).ok());
  }
  auto revived = RecoveryManager::Open(dir);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  auto report = revived->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->Count(RecoveryReason::kWalBadPayload), 2);
  EXPECT_EQ(report->wal_records_applied, 2);
  ASSERT_EQ(revived->state().trackers.size(), 1u);
  EXPECT_EQ(revived->state().trackers.count(-3), 0u);
  const core::OnlineShapeTracker& tracker = revived->state().trackers.at(2);
  EXPECT_EQ(tracker.count(), 2);
  EXPECT_EQ(tracker.num_clamped(), 0);
  EXPECT_EQ(tracker.sketch().n(), 2);
}

// A power cut leaves the live WAL segment at its preallocated size, with
// zeros past the last acknowledged record. Copying the state directory
// while the manager is live yields exactly that image: recovering it must
// repair nothing and rebuild the live state bit-for-bit.
TEST_F(RecoveryChaosTest, CrashImageWithPreallocatedTailRecoversEveryAck) {
  constexpr int kObservations = 60;
  const std::vector<Observation> stream = MakeStream(kObservations, 21);
  auto live = RecoveryManager::Open(root_ + "/live");
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(live->Bootstrap(MakeLibrary(5)).ok());
  for (int i = 0; i < kObservations; ++i) {
    ASSERT_TRUE(live->Observe(stream[i].group_id, stream[i].value).ok());
    if (i + 1 == kObservations / 3) {
      ASSERT_TRUE(live->Checkpoint().ok());
    }
  }

  const std::string image = root_ + "/image";
  std::filesystem::copy(live->dir(), image,
                        std::filesystem::copy_options::recursive);
  // Bootstrap -> segment 1, the mid-stream Checkpoint -> live segment 2.
  const std::string wal_path = image + "/wal-000002";
  ASSERT_EQ(std::filesystem::file_size(wal_path), kWalChunkBytes);

  auto revived = RecoveryManager::Open(image);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  auto report = revived->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->snapshot_generation, 2);
  EXPECT_EQ(report->num_snapshots_discarded, 0);
  // Segment 1 still holds the records snapshot 2 covers: skipped as
  // stale, which is not a repair. Every other reason is one.
  EXPECT_EQ(report->Count(RecoveryReason::kWalStale), kObservations / 3);
  for (int i = 0; i < kNumRecoveryReasons; ++i) {
    const auto reason = static_cast<RecoveryReason>(i);
    if (reason == RecoveryReason::kWalStale) continue;
    EXPECT_EQ(report->Count(reason), 0) << RecoveryReasonName(reason);
  }
  EXPECT_EQ(report->wal_bytes_truncated, 0);
  EXPECT_EQ(report->wal_records_applied, kObservations - kObservations / 3);
  EXPECT_EQ(revived->last_sequence(), live->last_sequence());
  ExpectStatesBitIdentical(live->state(), revived->state());
  // Nothing was cut: the zero tail is end of log, not a repair.
  EXPECT_EQ(std::filesystem::file_size(wal_path), kWalChunkBytes);
}

TEST_F(RecoveryChaosTest, AllSnapshotsCorruptIsAnErrorNotACrash) {
  const std::string dir = root_ + "/doomed";
  {
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Bootstrap(MakeLibrary(3)).ok());
  }
  const std::string snap = dir + "/snapshot-000001";
  auto bytes = ReadFileToString(snap);
  ASSERT_TRUE(bytes.ok());
  const sim::StorageFaultPlan faults(5);
  ASSERT_TRUE(AtomicWriteFile(snap, faults.FlipBits(*bytes, 5)).ok());

  auto revived = RecoveryManager::Open(dir);
  ASSERT_TRUE(revived.ok());
  auto report = revived->Recover();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIOError)
      << report.status().ToString();
}

// The serving-state header records decay 1.0 and the floor
// core::kPmfFloor, the only values the trackers use. A generation whose
// header holds another value, re-framed with valid checksums so that value
// is its only fault, is refused as corrupt and the previous generation
// restores (its WAL tail replays to the same live state). The unpatched
// re-frame restores the newest generation, so the re-framing itself is
// sound.
TEST_F(RecoveryChaosTest, SnapshotHeaderWithOtherDecayOrFloorIsCorrupt) {
  enum class Patch { kNone, kDecay, kFloor };
  for (Patch patch : {Patch::kNone, Patch::kDecay, Patch::kFloor}) {
    const std::string dir =
        root_ + "/header" + std::to_string(static_cast<int>(patch));
    auto manager = RecoveryManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(manager->Bootstrap(MakeLibrary(13)).ok());
    for (const Observation& obs : MakeStream(40, 14)) {
      ASSERT_TRUE(manager->Observe(obs.group_id, obs.value).ok());
    }
    ASSERT_TRUE(manager->Checkpoint().ok());
    ASSERT_EQ(manager->generation(), 2);

    const std::string snap = manager->SnapshotPath(2);
    auto bytes = ReadFileToString(snap);
    ASSERT_TRUE(bytes.ok());
    auto reader =
        SnapshotReader::Open(*std::move(bytes), PayloadKind::kServingState);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    SnapshotWriter reframed(PayloadKind::kServingState);
    {
      auto header = reader->Record(0);
      ASSERT_TRUE(header.ok());
      BinaryReader r(*header);
      const uint64_t watermark = *r.ReadU64();
      const uint64_t next_segment = *r.ReadU64();
      double decay = *r.ReadDouble();
      double floor = *r.ReadDouble();
      const uint64_t num_trackers = *r.ReadU64();
      ASSERT_TRUE(r.AtEnd());
      EXPECT_EQ(decay, 1.0);
      EXPECT_EQ(floor, core::kPmfFloor);
      if (patch == Patch::kDecay) decay = 0.95;
      if (patch == Patch::kFloor) floor = 1e-5;
      BinaryWriter w;
      w.PutU64(watermark);
      w.PutU64(next_segment);
      w.PutDouble(decay);
      w.PutDouble(floor);
      w.PutU64(num_trackers);
      reframed.AddRecord(w.bytes());
    }
    for (size_t i = 1; i < reader->num_records(); ++i) {
      auto record = reader->Record(i);
      ASSERT_TRUE(record.ok());
      reframed.AddRecord(*record);
    }
    ASSERT_TRUE(AtomicWriteFile(snap, reframed.Finish()).ok());

    auto revived = RecoveryManager::Open(dir);
    ASSERT_TRUE(revived.ok());
    auto report = revived->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const bool refused = patch != Patch::kNone;
    EXPECT_EQ(report->snapshot_generation, refused ? 1 : 2);
    EXPECT_EQ(report->Count(RecoveryReason::kSnapshotCorrupt),
              refused ? 1 : 0);
    EXPECT_EQ(report->num_snapshots_discarded, refused ? 1 : 0);
    ExpectStatesBitIdentical(manager->state(), revived->state());
  }
}

TEST_F(RecoveryChaosTest, EmptyDirectoryRecoverIsNotFound) {
  auto manager = RecoveryManager::Open(root_ + "/fresh");
  ASSERT_TRUE(manager.ok());
  EXPECT_FALSE(manager->HasState());
  auto report = manager->Recover();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsNotFound());
}

TEST_F(RecoveryChaosTest, PruningKeepsOnlyConfiguredGenerations) {
  RecoveryManager::Options options;
  options.keep_snapshots = 2;
  const std::string dir = root_ + "/pruned";
  auto manager = RecoveryManager::Open(dir, options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(manager->Bootstrap(MakeLibrary(9)).ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(manager->Observe(i, 1.0 + 0.1 * i).ok());
    }
    ASSERT_TRUE(manager->Checkpoint().ok());
  }
  EXPECT_EQ(manager->generation(), 5);
  int snapshots = 0;
  int segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    snapshots += name.rfind("snapshot-", 0) == 0 ? 1 : 0;
    segments += name.rfind("wal-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(snapshots, 2);  // generations 4 and 5
  EXPECT_LE(segments, 2);   // live segment + at most one replay segment
  // The retained files still recover to the live state.
  auto reopened = RecoveryManager::Open(dir, options);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened->Recover().ok());
  ExpectStatesBitIdentical(manager->state(), reopened->state());
}

}  // namespace
}  // namespace io
}  // namespace rvar
