#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "stats/descriptive.h"

namespace rvar {
namespace sim {
namespace {

Cluster MakeDefaultCluster(uint64_t seed = 1) {
  ClusterConfig config;
  config.seed = seed;
  auto c = Cluster::Make(SkuCatalog::Default(), config);
  EXPECT_TRUE(c.ok());
  return *c;
}

TEST(SkuCatalogTest, DefaultIsWellFormed) {
  SkuCatalog catalog = SkuCatalog::Default();
  EXPECT_EQ(catalog.NumSkus(), 7u);
  EXPECT_GT(catalog.TotalMachines(), 1000);
  EXPECT_GT(catalog.TotalTokens(), 10000);
  // Newer generations are faster.
  EXPECT_LT(catalog.sku(0).speed, catalog.sku(catalog.NumSkus() - 1).speed);
  EXPECT_EQ(catalog.IndexOf("Gen5.2"), 5);
  EXPECT_EQ(catalog.IndexOf("nope"), -1);
}

TEST(SkuCatalogTest, MakeRejectsBadSpecs) {
  EXPECT_FALSE(SkuCatalog::Make({}).ok());
  EXPECT_FALSE(SkuCatalog::Make({{"A", 0.0, 10, 8}}).ok());
  EXPECT_FALSE(SkuCatalog::Make({{"A", 1.0, 0, 8}}).ok());
  EXPECT_FALSE(
      SkuCatalog::Make({{"A", 1.0, 10, 8}, {"A", 1.2, 10, 8}}).ok());
}

TEST(ClusterTest, MakeRejectsBadConfig) {
  SkuCatalog catalog = SkuCatalog::Default();
  ClusterConfig config;
  config.mean_utilization = 0.0;
  EXPECT_FALSE(Cluster::Make(catalog, config).ok());
  config = {};
  config.spare_exposure = 1.5;
  EXPECT_FALSE(Cluster::Make(catalog, config).ok());
  config = {};
  config.noise_period_seconds = 0.0;
  EXPECT_FALSE(Cluster::Make(catalog, config).ok());
}

TEST(ClusterTest, FleetMatchesCatalog) {
  Cluster cluster = MakeDefaultCluster();
  EXPECT_EQ(static_cast<int>(cluster.machines().size()),
            cluster.catalog().TotalMachines());
  for (size_t s = 0; s < cluster.catalog().NumSkus(); ++s) {
    EXPECT_EQ(static_cast<int>(cluster.MachinesOfSku(static_cast<int>(s)).size()),
              cluster.catalog().sku(s).machine_count);
  }
}

TEST(ClusterTest, DiurnalCycleHasPeakAndTrough) {
  Cluster cluster = MakeDefaultCluster();
  double lo = 1.0, hi = 0.0;
  for (double t = 0.0; t < 86400.0; t += 3600.0) {
    const double u = cluster.BaselineUtilization(t);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_GT(hi - lo, 0.2);  // amplitude 0.15 => swing ~0.3
  // 24h periodicity.
  EXPECT_NEAR(cluster.BaselineUtilization(1000.0),
              cluster.BaselineUtilization(1000.0 + 86400.0), 1e-9);
}

TEST(ClusterTest, MachineUtilizationDeterministicAndBounded) {
  Cluster cluster = MakeDefaultCluster();
  for (int id : {0, 100, 500}) {
    for (double t : {0.0, 5000.0, 80000.0}) {
      const double u1 = cluster.MachineUtilization(id, t);
      const double u2 = cluster.MachineUtilization(id, t);
      EXPECT_EQ(u1, u2);
      EXPECT_GE(u1, 0.02);
      EXPECT_LE(u1, 0.98);
    }
  }
}

TEST(ClusterTest, LoadImbalanceSpreadsUtilization) {
  ClusterConfig balanced;
  balanced.load_imbalance = 0.0;
  balanced.noise_amplitude = 0.0;
  auto flat = Cluster::Make(SkuCatalog::Default(), balanced);
  ASSERT_TRUE(flat.ok());
  ClusterConfig skewed = balanced;
  skewed.load_imbalance = 0.15;
  auto bumpy = Cluster::Make(SkuCatalog::Default(), skewed);
  ASSERT_TRUE(bumpy.ok());

  double flat_std = 0.0, bumpy_std = 0.0;
  flat->SkuUtilization(0, 1000.0, nullptr, &flat_std);
  bumpy->SkuUtilization(0, 1000.0, nullptr, &bumpy_std);
  EXPECT_NEAR(flat_std, 0.0, 1e-9);
  EXPECT_GT(bumpy_std, 0.05);
}

TEST(ClusterTest, SpareAvailabilityAntiCorrelatedWithLoad) {
  Cluster cluster = MakeDefaultCluster();
  // Collect (baseline load, spare) over a day; correlation must be < 0.
  std::vector<double> load, spare;
  for (double t = 0.0; t < 86400.0; t += 1800.0) {
    load.push_back(cluster.BaselineUtilization(t));
    spare.push_back(cluster.SpareAvailability(t));
  }
  double lm = Mean(load), sm = Mean(spare), cov = 0.0;
  for (size_t i = 0; i < load.size(); ++i) {
    cov += (load[i] - lm) * (spare[i] - sm);
  }
  EXPECT_LT(cov, 0.0);
  for (double s : spare) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(ClusterTest, PlacementPrefersIdleMachines) {
  Cluster cluster = MakeDefaultCluster();
  Rng rng(11);
  const std::vector<int> greedy =
      cluster.SamplePlacement(400, 1000.0, 3.0, -1, 0.0, &rng);
  const std::vector<int> random =
      cluster.SamplePlacement(400, 1000.0, 0.0, -1, 0.0, &rng);
  RunningStats g, r;
  for (int id : greedy) g.Add(cluster.MachineUtilization(id, 1000.0));
  for (int id : random) r.Add(cluster.MachineUtilization(id, 1000.0));
  EXPECT_LT(g.mean(), r.mean());
}

TEST(ClusterTest, PlacementHonorsSkuPreference) {
  Cluster cluster = MakeDefaultCluster();
  Rng rng(12);
  const int sku = cluster.catalog().IndexOf("Gen6");
  const std::vector<int> placed =
      cluster.SamplePlacement(300, 0.0, 1.0, sku, 1.0, &rng);
  for (int id : placed) {
    EXPECT_EQ(cluster.machines()[static_cast<size_t>(id)].sku_index, sku);
  }
  // With preference 0, machines come from many SKUs.
  const std::vector<int> spread =
      cluster.SamplePlacement(300, 0.0, 1.0, sku, 0.0, &rng);
  std::set<int> skus;
  for (int id : spread) {
    skus.insert(cluster.machines()[static_cast<size_t>(id)].sku_index);
  }
  EXPECT_GT(skus.size(), 3u);
}

TEST(ClusterTest, SkuUtilizationMatchesPerMachineQueries) {
  Cluster cluster = MakeDefaultCluster(3);
  for (size_t s = 0; s < cluster.catalog().NumSkus(); ++s) {
    const std::vector<int>& ids = cluster.MachinesOfSku(static_cast<int>(s));
    for (double t : {0.0, 299.9, 300.0, 43210.5, 3.5e6}) {
      // SkuUtilization's subsample (every step-th machine) and its
      // accumulation order.
      const size_t step = std::max<size_t>(1, ids.size() / 64);
      double sum = 0.0, sumsq = 0.0;
      int n = 0;
      for (size_t i = 0; i < ids.size(); i += step) {
        const double u = cluster.MachineUtilization(ids[i], t);
        sum += u;
        sumsq += u * u;
        ++n;
      }
      const double mu = sum / n;
      double mean = -1.0, stddev = -1.0;
      cluster.SkuUtilization(static_cast<int>(s), t, &mean, &stddev);
      EXPECT_EQ(mean, mu) << "sku " << s << " t " << t;
      EXPECT_EQ(stddev, std::sqrt(std::max(0.0, sumsq / n - mu * mu)))
          << "sku " << s << " t " << t;
    }
  }
}

TEST(ClusterTest, PlacementReportsChosenMachinesUtilization) {
  Cluster cluster = MakeDefaultCluster(4);
  const int sku = cluster.catalog().IndexOf("Gen4");
  for (double t : {0.0, 1000.0, 61234.5}) {
    for (double greed : {0.0, 1.5, 4.0}) {
      Rng with_util(99), without_util(99);
      std::vector<double> util = {7.0};  // stale contents are replaced
      const std::vector<int> placed = cluster.SamplePlacement(
          200, t, greed, sku, 0.4, &with_util, &util);
      // Asking for utilizations changes neither the draws nor the choice.
      EXPECT_EQ(placed, cluster.SamplePlacement(200, t, greed, sku, 0.4,
                                                &without_util));
      EXPECT_EQ(with_util.Next(), without_util.Next());
      ASSERT_EQ(util.size(), placed.size());
      for (size_t i = 0; i < placed.size(); ++i) {
        EXPECT_EQ(util[i], cluster.MachineUtilization(placed[i], t));
      }
    }
  }
}

TEST(MachineNoiseTest, SplitKeyMatchesRecordedValues) {
  // Values recorded from the single-step hash the split replaced:
  // HashCombine(HashCombine(seed, id), bucket) mapped to [-1, 1].
  struct Golden {
    uint64_t seed;
    int machine_id;
    int64_t bucket;
    uint64_t bits;
  };
  const Golden kGolden[] = {
      {1234, 0, 0, 0x3fe1313f9afeebbaULL},
      {1234, 2339, 14399, 0x3fd4913ab07f23c0ULL},
      {77, 5, -3, 0xbfe842f6e1ac1a40ULL},
      {0xFFFFFFFFFFFFFFFFULL, 1, int64_t{1} << 40, 0xbfc552b090214238ULL},
      {1234 ^ 0x5157ULL, -1, 288, 0xbfda8f0263e26064ULL},
  };
  for (const Golden& g : kGolden) {
    const double split =
        BucketNoise(MachineNoiseKey(g.seed, g.machine_id), g.bucket);
    EXPECT_EQ(std::bit_cast<uint64_t>(split), g.bits);
    EXPECT_EQ(std::bit_cast<uint64_t>(
                  MachineNoise(g.seed, g.machine_id, g.bucket)),
              g.bits);
  }
}

TEST(MachineNoiseTest, DeterministicAndBounded) {
  for (int m = 0; m < 50; ++m) {
    for (int64_t b = 0; b < 20; ++b) {
      const double n1 = MachineNoise(77, m, b);
      EXPECT_EQ(n1, MachineNoise(77, m, b));
      EXPECT_GE(n1, -1.0);
      EXPECT_LE(n1, 1.0);
    }
  }
  // Different machines / buckets give different noise.
  EXPECT_NE(MachineNoise(77, 1, 5), MachineNoise(77, 2, 5));
  EXPECT_NE(MachineNoise(77, 1, 5), MachineNoise(77, 1, 6));
}

// BelowPowThreeHalves stands in for `u < std::pow(x, 1.5)` in placement;
// any disagreement would change a placement decision and every draw after
// it.
TEST(PlacementDecisionTest, MatchesPowOnRandomDraws) {
  Rng rng(4242);
  for (int i = 0; i < 1000000; ++i) {
    const double x = rng.Uniform(0.02, 0.98);
    const double u = rng.Uniform();
    ASSERT_EQ(BelowPowThreeHalves(u, x), u < std::pow(x, 1.5))
        << "u=" << u << " x=" << x;
  }
}

TEST(PlacementDecisionTest, MatchesPowAtNearTies) {
  // Draws within 64 ulp of pow(x, 1.5) on both sides, so the pow fallback
  // inside the bracket runs and the bracket's ends are crossed.
  Rng rng(4243);
  int disagreeing_x = 0;
  for (int i = 0; i < 20000; ++i) {
    const double x =
        i == 0 ? 0.02 : (i == 1 ? 0.98 : rng.Uniform(0.02, 0.98));
    const double p = std::pow(x, 1.5);
    if (x * std::sqrt(x) != p) ++disagreeing_x;
    double below = p, above = p;
    for (int k = 0; k <= 64; ++k) {
      ASSERT_EQ(BelowPowThreeHalves(below, x), below < p)
          << "x=" << x << " k=-" << k;
      ASSERT_EQ(BelowPowThreeHalves(above, x), above < p)
          << "x=" << x << " k=+" << k;
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1.0);
    }
  }
  // x * sqrt(x) is not pow's value for every x; where they differ, only
  // the bracket keeps the ties on pow's side.
  EXPECT_GT(disagreeing_x, 0);
}

}  // namespace
}  // namespace sim
}  // namespace rvar
