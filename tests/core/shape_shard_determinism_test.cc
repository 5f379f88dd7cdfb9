// Shard-count byte-identity suite for the share-nothing ShapeService
// (DESIGN.md §13): the same observation streams fed to services running
// 1, 4, and 16 shards — from concurrent writers — must export the exact
// same bytes through the io kShapeServiceState codec and answer every
// query identically. Also the kill-and-restore chaos case over that
// codec: a snapshot saved by one shard count reloads into any other,
// reproduces every answer, and a corrupted snapshot is refused whole,
// leaving the target service untouched. Runs under both the TSan
// (`-L concurrency`) and ASan (`-L chaos`) presets.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "io/serialize.h"
#include "sim/faults.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace core {
namespace {

class ShapeShardDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TelemetryStore store;
    GroupMedians medians;
    Rng rng(59);
    for (int gid = 0; gid < 12; ++gid) {
      const double median = rng.Uniform(100.0, 300.0);
      for (int i = 0; i < 50; ++i) {
        const double factor =
            gid % 2 == 0 ? std::max(0.2, rng.Normal(1.0, 0.04))
                         : (rng.Bernoulli(0.4) ? rng.Normal(3.0, 0.1)
                                               : rng.Normal(1.0, 0.05));
        sim::JobRun run;
        run.group_id = gid;
        run.runtime_seconds = median * std::max(0.05, factor);
        store.Add(run);
      }
      medians.Set(gid, median);
    }
    ShapeLibraryConfig config;
    config.num_clusters = 2;
    config.min_support = 20;
    auto lib = ShapeLibrary::Build(store, medians, config);
    ASSERT_TRUE(lib.ok()) << lib.status().ToString();
    library_ = new ShapeLibrary(std::move(*lib));
  }
  static void TearDownTestSuite() {
    delete library_;
    library_ = nullptr;
  }

  // Deterministic per-group stream, a function of the group id only.
  static std::vector<double> StreamFor(int group_id, int n) {
    Rng rng(9000 + static_cast<uint64_t>(group_id));
    std::vector<double> xs;
    xs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      xs.push_back(group_id % 2 == 1
                       ? (rng.Bernoulli(0.4) ? rng.Normal(3.0, 0.1)
                                             : rng.Normal(1.0, 0.05))
                       : std::max(0.2, rng.Normal(1.0, 0.04)));
    }
    return xs;
  }

  // Feeds every group's stream from `threads` concurrent writers, each
  // owning a disjoint group set, so per-group observation order is
  // deterministic while shard locking is genuinely exercised in parallel.
  static std::unique_ptr<ShapeService> BuildService(int num_shards,
                                                    int num_groups,
                                                    int obs_per_group,
                                                    int threads) {
    ShapeService::Options options;
    options.decay = 0.95;
    options.num_shards = num_shards;
    auto service = ShapeService::Make(library_, options);
    EXPECT_TRUE(service.ok());
    std::vector<std::thread> writers;
    for (int t = 0; t < threads; ++t) {
      writers.emplace_back([&service, t, num_groups, obs_per_group,
                            threads] {
        for (int gid = t; gid < num_groups; gid += threads) {
          for (double x : StreamFor(gid, obs_per_group)) {
            ASSERT_TRUE((*service)->Observe(gid, x).ok());
          }
        }
      });
    }
    for (std::thread& t : writers) t.join();
    return std::move(*service);
  }

  static ShapeLibrary* library_;
};

ShapeLibrary* ShapeShardDeterminismTest::library_ = nullptr;

TEST_F(ShapeShardDeterminismTest, ExportBytesIdenticalAcrossShardCounts) {
  constexpr int kGroups = 48;
  constexpr int kObs = 25;
  constexpr int kThreads = 4;

  auto one = BuildService(1, kGroups, kObs, kThreads);
  auto four = BuildService(4, kGroups, kObs, kThreads);
  auto sixteen = BuildService(16, kGroups, kObs, kThreads);

  const std::string image_one = io::EncodeShapeServiceState(*one);
  const std::string image_four = io::EncodeShapeServiceState(*four);
  const std::string image_sixteen = io::EncodeShapeServiceState(*sixteen);
  ASSERT_FALSE(image_one.empty());
  EXPECT_EQ(image_four, image_one) << "4-shard image diverged";
  EXPECT_EQ(image_sixteen, image_one) << "16-shard image diverged";

  // Every query surface answers identically at every shard count.
  EXPECT_EQ(four->TotalObservations(), one->TotalObservations());
  EXPECT_EQ(sixteen->TotalObservations(), one->TotalObservations());
  EXPECT_EQ(four->NumGroups(), one->NumGroups());
  EXPECT_EQ(sixteen->TrackedGroups(), one->TrackedGroups());
  for (int gid = 0; gid < kGroups + 4; ++gid) {  // includes unknown groups
    EXPECT_EQ(four->MostLikely(gid), one->MostLikely(gid)) << gid;
    EXPECT_EQ(sixteen->MostLikely(gid), one->MostLikely(gid)) << gid;
    EXPECT_EQ(four->GroupCount(gid), one->GroupCount(gid)) << gid;
    EXPECT_EQ(sixteen->Posterior(gid), one->Posterior(gid)) << gid;
    EXPECT_EQ(four->Posterior(gid), one->Posterior(gid)) << gid;
  }
  EXPECT_EQ(four->GlobalPriorShape(), one->GlobalPriorShape());
  EXPECT_EQ(sixteen->GlobalPriorShape(), one->GlobalPriorShape());
}

// Kill-and-restore over the sharded codec: snapshot a 16-shard service
// (the "kill"), reload the file into 1- and 4-shard services (the
// differently-provisioned restart), and require bit-identical re-exports
// and answers. A bit-flipped snapshot must be refused whole.
TEST_F(ShapeShardDeterminismTest, KillAndRestoreAcrossShardCounts) {
  constexpr int kGroups = 32;
  constexpr int kObs = 20;
  auto origin = BuildService(16, kGroups, kObs, /*threads=*/4);

  const UniqueTempDir dir;
  const std::string path = dir.File("shape_service.snap");
  ASSERT_TRUE(io::SaveShapeServiceState(*origin, path).ok());

  const std::string image = io::EncodeShapeServiceState(*origin);
  for (int shards : {1, 4}) {
    ShapeService::Options options;
    options.decay = 0.95;
    options.num_shards = shards;
    auto revived = ShapeService::Make(library_, options);
    ASSERT_TRUE(revived.ok());
    auto states = io::LoadShapeServiceState(path);
    ASSERT_TRUE(states.ok()) << states.status().ToString();
    ASSERT_TRUE((*revived)->RestoreState(*states).ok());

    EXPECT_EQ(io::EncodeShapeServiceState(**revived), image)
        << shards << "-shard revival re-export diverged";
    EXPECT_EQ((*revived)->TotalObservations(), origin->TotalObservations());
    for (int gid = 0; gid < kGroups; ++gid) {
      EXPECT_EQ((*revived)->Posterior(gid), origin->Posterior(gid)) << gid;
      EXPECT_EQ((*revived)->MostLikely(gid), origin->MostLikely(gid)) << gid;
    }
  }

  // Corruption is refused whole: the target keeps its pre-restore state.
  const sim::StorageFaultPlan faults(1234);
  ShapeService::Options options;
  options.num_shards = 4;
  auto target = ShapeService::Make(library_, options);
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE((*target)->Observe(3, 1.0).ok());
  int refused = 0;
  for (int trial = 0; trial < 8; ++trial) {
    auto states = io::DecodeShapeServiceState(
        faults.FlipBits(image, 1 + trial % 3, 71 + trial));
    if (!states.ok()) {
      ++refused;
      continue;
    }
    // A flip the checksum cannot catch is astronomically unlikely, but if
    // decode succeeds the restore path still validates strictly.
    if (!(*target)->RestoreState(*states).ok()) ++refused;
  }
  EXPECT_GT(refused, 0);
  EXPECT_EQ((*target)->NumGroups(), 1u);
  EXPECT_EQ((*target)->GroupCount(3), 1);
}

// Sketch-focused determinism (ISSUE 10): with enough observations per
// group to force compactions, the per-group sketches — and every answer
// reconstructed from them — must still be identical at any shard count.
// A group lives on exactly one shard, so its sketch sees its full stream
// in order regardless of the partitioning; seed-free parity compaction
// does the rest.
TEST_F(ShapeShardDeterminismTest, SketchesIdenticalAcrossShardCounts) {
  constexpr int kGroups = 16;
  constexpr int kObs = 600;  // 3x the default k: several compactions deep
  constexpr int kThreads = 4;
  auto one = BuildService(1, kGroups, kObs, kThreads);
  auto sixteen = BuildService(16, kGroups, kObs, kThreads);

  const std::vector<GroupState> a = one->ExportState();
  const std::vector<GroupState> b = sixteen->ExportState();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].group_id, b[i].group_id);
    EXPECT_EQ(a[i].sketch.items(), b[i].sketch.items())
        << "group " << a[i].group_id;
    EXPECT_EQ(a[i].sketch.level_sizes(), b[i].sketch.level_sizes());
    EXPECT_EQ(a[i].sketch.compaction_parity(),
              b[i].sketch.compaction_parity());
    EXPECT_EQ(a[i].sketch.n(), b[i].sketch.n());
    // Bounded state: the acceptance bound at the default k = 200.
    EXPECT_LE(a[i].sketch.MemoryBytes(), 2048u);
  }
  for (int gid = 0; gid < kGroups + 2; ++gid) {
    EXPECT_EQ(sixteen->PriorShape(gid), one->PriorShape(gid)) << gid;
    std::vector<double> pmf_one, pmf_sixteen;
    const bool known_one = one->ReconstructPmf(gid, &pmf_one);
    ASSERT_EQ(sixteen->ReconstructPmf(gid, &pmf_sixteen), known_one) << gid;
    EXPECT_EQ(pmf_sixteen, pmf_one) << gid;
  }
  EXPECT_EQ(io::EncodeShapeServiceState(*sixteen),
            io::EncodeShapeServiceState(*one));
}

}  // namespace
}  // namespace core
}  // namespace rvar
