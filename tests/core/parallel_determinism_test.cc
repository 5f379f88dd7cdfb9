// Parallel-vs-serial determinism suite: every parallelized training or
// build path must produce bit-identical artifacts whether it runs inline
// (1 thread) or on the pool (8 threads). Persisted models are compared
// through their snapshot encoders (src/io/serialize.h) and the rest field
// by field, so any drift — tree structure, split thresholds, centroids,
// PMFs — fails the comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/normalization.h"
#include "core/shape_library.h"
#include "io/serialize.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/kmeans.h"

namespace rvar {
namespace core {
namespace {

// Every test restores the automatic thread count on exit so a failing
// EXPECT cannot leak a forced setting into later tests.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ~ParallelDeterminismTest() override { SetParallelThreads(0); }

  // Runs `fn` once at 1 thread and once at 8 threads, returning both
  // artifacts for comparison.
  template <typename Fn>
  static auto AtOneAndEightThreads(Fn fn)
      -> std::pair<decltype(fn()), decltype(fn())> {
    SetParallelThreads(1);
    auto serial = fn();
    SetParallelThreads(8);
    auto parallel = fn();
    SetParallelThreads(0);
    return {std::move(serial), std::move(parallel)};
  }
};

ml::Dataset BlobsDataset(int n_per_class, uint64_t seed) {
  const double centers[3][2] = {{0.0, 0.0}, {4.0, 0.0}, {2.0, 4.0}};
  Rng rng(seed);
  ml::Dataset d;
  d.feature_names = {"x0", "x1", "noise"};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < n_per_class; ++i) {
      d.x.push_back({rng.Normal(centers[c][0], 0.8),
                     rng.Normal(centers[c][1], 0.8), rng.Uniform()});
      d.y.push_back(c);
    }
  }
  return d;
}

TEST_F(ParallelDeterminismTest, GbdtSnapshotIsByteIdentical) {
  const ml::Dataset train = BlobsDataset(120, 31);
  auto [serial, parallel] = AtOneAndEightThreads([&] {
    ml::GbdtConfig config;
    config.num_rounds = 25;
    ml::GbdtClassifier model(config);
    EXPECT_TRUE(model.Fit(train).ok());
    return io::EncodeGbdtClassifier(model);
  });
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// Field-by-field forest equality: the class count, the importance vector
// and every node of every tree, with doubles compared as bit patterns.
void ExpectForestsIdentical(const ml::RandomForestClassifier& a,
                            const ml::RandomForestClassifier& b) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  const auto all_bits = [&](const std::vector<double>& vs) {
    std::vector<uint64_t> out;
    for (double v : vs) out.push_back(bits(v));
    return out;
  };
  EXPECT_EQ(a.num_classes(), b.num_classes());
  EXPECT_EQ(all_bits(a.feature_importance()),
            all_bits(b.feature_importance()));
  ASSERT_EQ(a.trees().size(), b.trees().size());
  for (size_t t = 0; t < a.trees().size(); ++t) {
    const std::vector<ml::TreeNode>& na = a.trees()[t].nodes;
    const std::vector<ml::TreeNode>& nb = b.trees()[t].nodes;
    ASSERT_EQ(na.size(), nb.size()) << "tree " << t;
    for (size_t i = 0; i < na.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "tree " << t << " node " << i);
      EXPECT_EQ(na[i].feature, nb[i].feature);
      EXPECT_EQ(bits(na[i].threshold), bits(nb[i].threshold));
      EXPECT_EQ(na[i].left, nb[i].left);
      EXPECT_EQ(na[i].right, nb[i].right);
      EXPECT_EQ(bits(na[i].cover), bits(nb[i].cover));
      EXPECT_EQ(all_bits(na[i].value), all_bits(nb[i].value));
    }
  }
}

TEST_F(ParallelDeterminismTest, ForestSnapshotIsByteIdentical) {
  const ml::Dataset train = BlobsDataset(120, 32);
  auto [serial, parallel] = AtOneAndEightThreads([&] {
    ml::ForestConfig config;
    config.num_trees = 24;
    ml::RandomForestClassifier model(config);
    EXPECT_TRUE(model.Fit(train).ok());
    return model;
  });
  ASSERT_FALSE(serial.trees().empty());
  ExpectForestsIdentical(serial, parallel);
}

TEST_F(ParallelDeterminismTest, ForestImportanceIsExactlyReproduced) {
  const ml::Dataset train = BlobsDataset(80, 33);
  auto [serial, parallel] = AtOneAndEightThreads([&] {
    ml::ForestConfig config;
    config.num_trees = 16;
    ml::RandomForestClassifier model(config);
    EXPECT_TRUE(model.Fit(train).ok());
    return model.feature_importance();
  });
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "importance " << i;
  }
}

TEST_F(ParallelDeterminismTest, KMeansIsExactlyReproduced) {
  Rng rng(34);
  std::vector<std::vector<double>> points;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 60; ++i) {
      points.push_back({rng.Normal(3.0 * c, 0.5), rng.Normal(-2.0 * c, 0.5)});
    }
  }
  auto [serial, parallel] = AtOneAndEightThreads([&] {
    ml::KMeansConfig config;
    config.k = 4;
    config.num_restarts = 8;
    auto model = ml::KMeans(points, config);
    EXPECT_TRUE(model.ok());
    return std::move(*model);
  });
  EXPECT_EQ(serial.centroids, parallel.centroids);
  EXPECT_EQ(serial.assignments, parallel.assignments);
  EXPECT_EQ(serial.inertia, parallel.inertia);
  EXPECT_EQ(serial.iterations, parallel.iterations);
}

TEST_F(ParallelDeterminismTest, ShapeLibrarySnapshotIsByteIdentical) {
  sim::TelemetryStore store;
  GroupMedians medians;
  Rng rng(35);
  int gid = 0;
  for (int family = 0; family < 2; ++family) {
    for (int g = 0; g < 8; ++g) {
      const double median = rng.Uniform(100.0, 300.0);
      for (int i = 0; i < 60; ++i) {
        const double factor =
            family == 0 ? std::max(0.2, rng.Normal(1.0, 0.05))
                        : (rng.Bernoulli(0.4) ? rng.Normal(3.0, 0.1)
                                              : rng.Normal(1.0, 0.05));
        sim::JobRun run;
        run.group_id = gid;
        run.runtime_seconds = median * std::max(0.05, factor);
        store.Add(run);
      }
      medians.Set(gid, median);
      ++gid;
    }
  }
  auto [serial, parallel] = AtOneAndEightThreads([&] {
    ShapeLibraryConfig config;
    config.num_clusters = 2;
    config.min_support = 20;
    config.kmeans.num_restarts = 6;
    auto library = ShapeLibrary::Build(store, medians, config);
    EXPECT_TRUE(library.ok());
    return library.ok() ? io::EncodeShapeLibrary(*library) : std::string();
  });
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace core
}  // namespace rvar
