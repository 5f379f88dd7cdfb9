// Lifecycle-vs-traffic races on ShapeService: Forget and RestoreState
// concurrent with Observe/ProbabilityOf/PriorShape readers and writers. In a
// plain build this asserts the service stays internally consistent (counts
// never negative, posteriors always normalized, no crash); under
// -DRVAR_SANITIZE=thread it is the data-race probe for the shard locking
// on the mutating admin paths, which the original stress tests never
// exercised concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/shape_library.h"
#include "core/shape_service.h"

namespace rvar {
namespace core {
namespace {

class ShapeServiceRaceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TelemetryStore store;
    GroupMedians medians;
    Rng rng(97);
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

  static ShapeLibrary* library_;
};

ShapeLibrary* ShapeServiceRaceTest::library_ = nullptr;

TEST_F(ShapeServiceRaceTest, ForgetAndRestoreRaceObserveAndPosterior) {
  constexpr int kGroups = 16;
  constexpr int kObservers = 3;
  constexpr int kReaders = 3;
  constexpr int kAdminRounds = 200;

  ShapeService::Options options;
  options.num_shards = 4;  // force cross-group shard sharing
  auto service = ShapeService::Make(library_, options);
  ASSERT_TRUE(service.ok());

  // Seed a few groups so ExportState has something to snapshot from the
  // start, then capture a donor state to restore from repeatedly.
  for (int gid = 0; gid < kGroups; ++gid) {
    ASSERT_TRUE((*service)->Observe(gid, 1.0).ok());
  }
  const std::vector<GroupState> donor = (*service)->ExportState();
  ASSERT_EQ(donor.size(), static_cast<size_t>(kGroups));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < kObservers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(4000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const int gid = static_cast<int>(rng.UniformInt(0, kGroups - 1));
        const double x = rng.Bernoulli(0.4) ? rng.Normal(3.0, 0.1)
                                            : rng.Normal(1.0, 0.05);
        ASSERT_TRUE((*service)->Observe(gid, x).ok());
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(5000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const int gid = static_cast<int>(rng.UniformInt(0, kGroups - 1));
        // Each score is its own locked read, so the scores of one group
        // need not sum to 1 while writers race; each is a probability.
        for (int c = 0; c < library_->num_clusters(); ++c) {
          const double v = (*service)->ProbabilityOf(gid, c);
          ASSERT_TRUE(std::isfinite(v));
          ASSERT_GE(v, 0.0);
          ASSERT_LE(v, 1.0);
        }
        ASSERT_GE((*service)->GroupCount(gid), 0);
        const int shape = (*service)->PriorShape(gid);
        ASSERT_GE(shape, 0);
        ASSERT_LT(shape, library_->num_clusters());
      }
    });
  }
  threads.emplace_back([&] {  // admin: Forget sweeps racing full restores
    Rng rng(6000);
    for (int round = 0; round < kAdminRounds; ++round) {
      if (round % 3 == 2) {
        ASSERT_TRUE((*service)->RestoreState(donor).ok());
      } else {
        (*service)->Forget(static_cast<int>(rng.UniformInt(0, kGroups - 1)));
      }
      if (round % 10 == 0) (*service)->ExportState();
    }
    stop.store(true, std::memory_order_release);
  });

  for (std::thread& t : threads) t.join();

  // The final restore/forget interleaving is nondeterministic, but the
  // service must still be coherent: every tracked group answers with a
  // normalized posterior and a non-negative count.
  for (int gid : (*service)->TrackedGroups()) {
    double mass = 0.0;
    for (int c = 0; c < library_->num_clusters(); ++c) {
      mass += (*service)->ProbabilityOf(gid, c);
    }
    EXPECT_NEAR(mass, 1.0, 1e-9) << "group " << gid;
    EXPECT_GE((*service)->GroupCount(gid), 0);
  }
}

}  // namespace
}  // namespace core
}  // namespace rvar
