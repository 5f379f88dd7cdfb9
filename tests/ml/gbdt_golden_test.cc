// Golden GBDT models: the FNV-1a hash of the canonical snapshot bytes
// (io::EncodeGbdtClassifier — trees, thresholds, leaf values, base scores
// and feature importance) of three fits, pinned to constants and checked
// at several thread counts. A change to the training engine that moves any
// serialized bit of any of these models — at any pool width — fails here.
//
// The fits cover the three entry points that share the boosting loop:
//   1. Fit with 6 classes (more classes than most pool widths, and not a
//      multiple of them) plus row bagging and feature subsampling;
//   2. FitWithValidation that stops early;
//   3. FitWarmStart on model 1.
// Labeled `concurrency` (it lives in concurrency_test) so the TSan job
// runs the training loop's parallel regions.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "io/serialize.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"

namespace rvar {
namespace ml {
namespace {

constexpr int kClasses = 6;

// Overlapping Gaussian blobs, one per class, over 8 features: 5 carry the
// class signal, 3 are pure noise. 15% of labels are redrawn uniformly, so
// boosting eventually overfits and validation loss turns upward.
Dataset Blobs(int rows, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.feature_names = {"f0", "f1", "f2", "f3", "f4", "n0", "n1", "n2"};
  for (int i = 0; i < rows; ++i) {
    const int c = static_cast<int>(rng.UniformInt(0, kClasses - 1));
    std::vector<double> x;
    for (int f = 0; f < 5; ++f) {
      const double center = ((c + f) % kClasses) * 0.7;
      x.push_back(rng.Normal(center, 1.0));
    }
    for (int f = 0; f < 3; ++f) x.push_back(rng.Uniform());
    d.x.push_back(std::move(x));
    d.y.push_back(rng.Bernoulli(0.15)
                      ? static_cast<int>(rng.UniformInt(0, kClasses - 1))
                      : c);
  }
  return d;
}

GbdtConfig BaggedConfig() {
  GbdtConfig config;
  config.num_rounds = 12;
  config.max_leaves = 15;
  config.feature_fraction = 0.7;
  config.bagging_fraction = 0.8;
  // High enough that late-round trees stop on the gain cutoff before the
  // leaf cap.
  config.min_gain = 2.0;
  config.seed = 77;
  return config;
}

uint64_t ModelHash(const GbdtClassifier& model) {
  return Fnv1a(io::EncodeGbdtClassifier(model));
}

struct GoldenHashes {
  uint64_t bagged = 0;
  uint64_t early_stopped = 0;
  uint64_t warm_started = 0;
  int early_stopped_rounds = 0;
  // Trees of model 1 that stopped growing before the leaf cap.
  int short_trees = 0;
};

GoldenHashes FitAll() {
  const Dataset train = Blobs(6000, 11);
  const Dataset valid = Blobs(1500, 12);
  const Dataset window = Blobs(3000, 13);
  GoldenHashes out;

  GbdtClassifier bagged(BaggedConfig());
  EXPECT_TRUE(bagged.Fit(train).ok());
  out.bagged = ModelHash(bagged);
  for (int k = 0; k < kClasses; ++k) {
    for (const Tree& tree : bagged.trees_for_class(k)) {
      const size_t leaves = (tree.nodes.size() + 1) / 2;
      if (leaves < static_cast<size_t>(BaggedConfig().max_leaves)) {
        ++out.short_trees;
      }
    }
  }

  GbdtConfig stop_config;
  stop_config.num_rounds = 200;
  stop_config.learning_rate = 0.3;
  stop_config.early_stopping_rounds = 3;
  GbdtClassifier early(stop_config);
  EXPECT_TRUE(early.FitWithValidation(train, valid).ok());
  out.early_stopped = ModelHash(early);
  out.early_stopped_rounds = early.rounds_used();

  GbdtConfig warm_config = BaggedConfig();
  warm_config.num_rounds = 5;
  warm_config.seed = 78;
  GbdtClassifier warm(warm_config);
  EXPECT_TRUE(warm.FitWarmStart(window, bagged).ok());
  out.warm_started = ModelHash(warm);
  return out;
}

class GbdtGoldenTest : public ::testing::TestWithParam<int> {
 protected:
  ~GbdtGoldenTest() override { SetParallelThreads(0); }
};

TEST_P(GbdtGoldenTest, ModelBytesMatchRecordedHashes) {
  SetParallelThreads(GetParam());
  const GoldenHashes got = FitAll();
  EXPECT_EQ(got.bagged, 5235001524158410295ULL);
  EXPECT_EQ(got.early_stopped, 16123326974067070953ULL);
  EXPECT_EQ(got.warm_started, 9201168587543213284ULL);
  // Case 2 must actually stop early to cover the truncation path, and
  // case 1 must hold trees cut short (gain cutoff) to cover the builder's
  // early exit.
  EXPECT_EQ(got.early_stopped_rounds, 7);
  EXPECT_EQ(got.short_trees, 17);
}

INSTANTIATE_TEST_SUITE_P(Threads, GbdtGoldenTest,
                         ::testing::Values(1, 2, 3, 8));

}  // namespace
}  // namespace ml
}  // namespace rvar
