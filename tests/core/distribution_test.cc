// Tests for RuntimeDistribution and OnlineShapeTracker, built over a
// synthetic shape library with known distributions.

#include "core/distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/online.h"
#include "stats/descriptive.h"

namespace rvar {
namespace core {
namespace {

// Library with three clearly distinct Ratio shapes: tight around 1,
// bimodal {1, 3}, and heavy-tailed.
class DistributionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TelemetryStore store;
    GroupMedians medians;
    Rng rng(5);
    int gid = 0;
    auto add_family = [&](int family, int groups) {
      for (int g = 0; g < groups; ++g) {
        const double median = rng.Uniform(100.0, 300.0);
        for (int i = 0; i < 80; ++i) {
          double factor = 1.0;
          if (family == 0) {
            factor = std::max(0.2, rng.Normal(1.0, 0.04));
          } else if (family == 1) {
            factor = rng.Bernoulli(0.4) ? rng.Normal(3.0, 0.1)
                                        : rng.Normal(1.0, 0.05);
          } else {
            factor = rng.Bernoulli(0.1) ? rng.Uniform(8.0, 20.0)
                                        : std::max(0.2, rng.Normal(1.0, 0.2));
          }
          sim::JobRun run;
          run.group_id = gid;
          run.runtime_seconds = median * std::max(0.05, factor);
          store.Add(run);
        }
        medians.Set(gid, median);
        ++gid;
      }
    };
    add_family(0, 8);
    add_family(1, 8);
    add_family(2, 8);

    ShapeLibraryConfig config;
    config.num_clusters = 3;
    config.min_support = 20;
    config.kmeans.num_restarts = 6;
    auto lib = ShapeLibrary::Build(store, medians, config);
    ASSERT_TRUE(lib.ok()) << lib.status().ToString();
    library_ = new ShapeLibrary(std::move(*lib));

    // Identify the families' clusters via assignment of fresh samples.
    PosteriorAssigner assigner(library_);
    std::vector<double> tight(30, 1.0);
    tight_ = *assigner.Assign(tight);
    std::vector<double> bimodal;
    for (int i = 0; i < 30; ++i) bimodal.push_back(i % 2 ? 1.0 : 3.0);
    bimodal_ = *assigner.Assign(bimodal);
    std::vector<double> tailed;
    for (int i = 0; i < 30; ++i) tailed.push_back(i % 10 == 0 ? 12.0 : 1.0);
    tailed_ = *assigner.Assign(tailed);
  }
  static void TearDownTestSuite() {
    delete library_;
    library_ = nullptr;
  }

  static ShapeLibrary* library_;
  static int tight_, bimodal_, tailed_;
};

ShapeLibrary* DistributionTest::library_ = nullptr;
int DistributionTest::tight_ = -1;
int DistributionTest::bimodal_ = -1;
int DistributionTest::tailed_ = -1;

TEST_F(DistributionTest, FamiliesGetDistinctClusters) {
  EXPECT_NE(tight_, bimodal_);
  EXPECT_NE(tight_, tailed_);
  EXPECT_NE(bimodal_, tailed_);
}

TEST_F(DistributionTest, QuantilesInSeconds) {
  auto dist = RuntimeDistribution::Make(*library_, tight_, 200.0);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->cluster(), tight_);
  // Tight shape around ratio 1 => median ~200s, narrow spread.
  EXPECT_NEAR(dist->QuantileSeconds(0.5), 200.0, 20.0);
  EXPECT_LT(dist->QuantileSeconds(0.9) - dist->QuantileSeconds(0.1), 80.0);
  // Quantiles are monotone.
  double prev = 0.0;
  for (double q = 0.05; q <= 0.95; q += 0.05) {
    const double v = dist->QuantileSeconds(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST_F(DistributionTest, BimodalShapeHasWideQuantileGap) {
  auto dist = RuntimeDistribution::Make(*library_, bimodal_, 100.0);
  ASSERT_TRUE(dist.ok());
  // Modes at ~100s and ~300s: the 90th percentile sits at the slow mode.
  EXPECT_GT(dist->QuantileSeconds(0.9), 250.0);
  EXPECT_LT(dist->QuantileSeconds(0.2), 150.0);
}

TEST_F(DistributionTest, ExceedanceProbability) {
  auto dist = RuntimeDistribution::Make(*library_, bimodal_, 100.0);
  ASSERT_TRUE(dist.ok());
  EXPECT_NEAR(dist->ExceedanceProbability(1.0), 1.0, 1e-9);
  // ~40% of mass at the 3x mode.
  EXPECT_NEAR(dist->ExceedanceProbability(200.0), 0.4, 0.1);
  EXPECT_LT(dist->ExceedanceProbability(500.0), 0.05);
  // Monotone non-increasing in t.
  double prev = 1.0;
  for (double t = 50.0; t < 1200.0; t += 50.0) {
    const double p = dist->ExceedanceProbability(t);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST_F(DistributionTest, OutlierProbabilityMatchesTailedFamily) {
  auto tailed = RuntimeDistribution::Make(*library_, tailed_, 100.0);
  auto tight = RuntimeDistribution::Make(*library_, tight_, 100.0);
  ASSERT_TRUE(tailed.ok() && tight.ok());
  // The tailed family puts ~10% of runs at >= 8x; roughly the mass beyond
  // the 10x clip (some of it lands below 10).
  EXPECT_GT(tailed->OutlierProbability(), 0.02);
  EXPECT_LT(tight->OutlierProbability(), 0.01);
}

TEST_F(DistributionTest, SamplingMatchesQuantiles) {
  auto dist = RuntimeDistribution::Make(*library_, bimodal_, 100.0);
  ASSERT_TRUE(dist.ok());
  Rng rng(9);
  std::vector<double> xs = dist->Sample(20000, &rng);
  ASSERT_EQ(xs.size(), 20000u);
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[static_cast<size_t>(0.9 * xs.size())],
              dist->QuantileSeconds(0.9), 25.0);
  EXPECT_NEAR(Mean(xs), dist->MeanSeconds(), 15.0);
}

TEST_F(DistributionTest, MakeRejectsBadArguments) {
  EXPECT_FALSE(RuntimeDistribution::Make(*library_, -1, 100.0).ok());
  EXPECT_FALSE(RuntimeDistribution::Make(*library_, 99, 100.0).ok());
  EXPECT_FALSE(RuntimeDistribution::Make(*library_, 0, 0.0).ok());
}

// The cluster the tracker's running Eq. 3 sums rank first (lowest index
// on ties).
int ArgmaxOfSums(const OnlineShapeTracker& tracker) {
  const std::vector<double> sums = tracker.ExportState(0).log_likelihood;
  return static_cast<int>(std::max_element(sums.begin(), sums.end()) -
                          sums.begin());
}

TEST_F(DistributionTest, OnlineTrackerConvergesToTrueShape) {
  auto tracker = OnlineShapeTracker::Make(library_);
  ASSERT_TRUE(tracker.ok());
  const double uniform = 1.0 / library_->num_clusters();
  for (int c = 0; c < library_->num_clusters(); ++c) {
    EXPECT_EQ(tracker->ProbabilityOf(c), uniform);
  }
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    tracker->Observe(rng.Bernoulli(0.4) ? rng.Normal(3.0, 0.1)
                                        : rng.Normal(1.0, 0.05));
  }
  EXPECT_EQ(ArgmaxOfSums(*tracker), bimodal_);
  EXPECT_GT(tracker->ProbabilityOf(bimodal_), 0.95);
  EXPECT_EQ(tracker->count(), 50);
}

TEST_F(DistributionTest, OnlineTrackerMatchesBatchAssignerWithoutDecay) {
  auto tracker = OnlineShapeTracker::Make(library_);
  ASSERT_TRUE(tracker.ok());
  PosteriorAssigner assigner(library_);
  Rng rng(13);
  std::vector<double> obs;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.Bernoulli(0.1) ? 12.0 : rng.Normal(1.0, 0.2);
    obs.push_back(x);
    tracker->Observe(x);
  }
  auto batch = assigner.Assign(obs);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(ArgmaxOfSums(*tracker), *batch);
  // Log-likelihood sums agree with the batch computation.
  auto lls = assigner.LogLikelihoods(obs);
  ASSERT_TRUE(lls.ok());
  const std::vector<double> sums = tracker->ExportState(0).log_likelihood;
  for (size_t c = 0; c < lls->size(); ++c) {
    EXPECT_NEAR(sums[c], (*lls)[c].log_likelihood, 1e-9);
  }
}

// Restoring a fresh tracker's state empties a used one: no count, zero
// sums, an empty sketch and a uniform drift score.
TEST_F(DistributionTest, OnlineTrackerResets) {
  auto tracker = OnlineShapeTracker::Make(library_);
  auto fresh = OnlineShapeTracker::Make(library_);
  ASSERT_TRUE(tracker.ok());
  ASSERT_TRUE(fresh.ok());
  tracker->Observe(1.0);
  ASSERT_TRUE(tracker->RestoreState(fresh->ExportState(0)).ok());
  EXPECT_EQ(tracker->count(), 0);
  EXPECT_EQ(tracker->sketch().n(), 0);
  for (double v : tracker->ExportState(0).log_likelihood) EXPECT_EQ(v, 0.0);
  for (int c = 0; c < library_->num_clusters(); ++c) {
    EXPECT_NEAR(tracker->ProbabilityOf(c), 1.0 / library_->num_clusters(),
                1e-12);
  }
}

TEST_F(DistributionTest, TrackerMakeRejectsBadArgs) {
  EXPECT_FALSE(OnlineShapeTracker::Make(nullptr).ok());
  EXPECT_FALSE(OnlineShapeTracker::Make(library_, nullptr).ok());
}

}  // namespace
}  // namespace core
}  // namespace rvar
