// Checkpoint/restore walkthrough: a serving process tracks per-group
// runtime drift with OnlineShapeTrackers, persists every observation to a
// checksummed write-ahead log, and checkpoints periodically. The example
// then simulates the unglamorous part — a crash that tears the WAL tail
// and corrupts the newest snapshot — and shows Recover() rebuilding the
// exact pre-crash state while reporting everything it had to repair.
//
// Build & run:  ./build/examples/checkpoint_restore

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/rng.h"
#include "core/normalization.h"
#include "core/shape_library.h"
#include "io/recovery.h"
#include "io/snapshot.h"
#include "sim/faults.h"
#include "sim/telemetry.h"

using namespace rvar;

namespace {

// A small shape library learned from synthetic telemetry (three distinct
// variation families, as in the paper's Figure 5).
core::ShapeLibrary LearnLibrary() {
  sim::TelemetryStore store;
  core::GroupMedians medians;
  Rng rng(4);
  int gid = 0;
  for (int g = 0; g < 6; ++g) {
    for (int family = 0; family < 3; ++family) {
      const double median = rng.Uniform(60.0, 600.0);
      for (int i = 0; i < 40; ++i) {
        const double sigma = family == 0 ? 0.05 : (family == 1 ? 0.4 : 0.15);
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
  return *core::ShapeLibrary::Build(store, medians, config);
}

}  // namespace

int main() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rvar_checkpoint_demo")
          .string();
  std::filesystem::remove_all(dir);

  // --- Normal operation: bootstrap, observe, checkpoint. ------------------
  {
    auto manager = io::RecoveryManager::Open(dir);
    if (!manager.ok()) return 1;
    if (!manager->Bootstrap(LearnLibrary()).ok()) return 1;

    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
      // Normalized runtime of one finished job instance.
      const int group = static_cast<int>(rng.UniformInt(0, 9));
      (void)manager->Observe(group, rng.LogNormal(0.0, 0.4));
      if ((i + 1) % 100 == 0) {
        if (!manager->Checkpoint().ok()) return 1;
        std::printf("checkpointed generation %lld after %d observations\n",
                    static_cast<long long>(manager->generation()), i + 1);
      }
    }
    std::printf("serving state: %zu trackers, last sequence %llu\n",
                manager->state().trackers.size(),
                static_cast<unsigned long long>(manager->last_sequence()));
    // The manager goes out of scope without any clean shutdown — every
    // observation already hit fdatasync, which is the only durability needed.
  }

  // --- The crash does damage on the way down. -----------------------------
  const sim::StorageFaultPlan faults(7);
  {
    // A half-written record at the WAL tail...
    std::ofstream wal(dir + "/wal-000003",
                      std::ios::binary | std::ios::app);
    wal << std::string("\x40\x00\x00\x00oops", 8);
  }
  {
    // ...and a bit flip in the newest snapshot generation.
    const std::string snap = dir + "/snapshot-000003";
    auto bytes = io::ReadFileToString(snap);
    if (!bytes.ok()) return 1;
    if (!io::AtomicWriteFile(snap, faults.FlipBits(*bytes, 2)).ok()) {
      return 1;
    }
  }
  std::printf("\ncrash! tore the WAL tail and flipped bits in the newest "
              "snapshot\n\n");

  // --- Restart: recover and inspect the repair report. --------------------
  auto revived = io::RecoveryManager::Open(dir);
  if (!revived.ok()) return 1;
  auto report = revived->Recover();
  if (!report.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());
  std::printf("recovered: %zu trackers, last sequence %llu\n",
              revived->state().trackers.size(),
              static_cast<unsigned long long>(revived->last_sequence()));

  // The revived process continues exactly where the dead one stopped.
  (void)revived->Observe(0, 1.0);
  if (!revived->Checkpoint().ok()) return 1;
  std::printf("back in business: generation %lld\n",
              static_cast<long long>(revived->generation()));

  std::filesystem::remove_all(dir);
  return 0;
}
