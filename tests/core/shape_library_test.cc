#include "core/shape_library.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "common/rng.h"
#include "core/assigner.h"
#include "stats/descriptive.h"
#include "stats/distance.h"
#include "stats/kll_sketch.h"

namespace rvar {
namespace core {
namespace {

// Builds a telemetry store with three families of groups whose
// ratio-normalized runtime distributions are clearly distinct:
//  - "tight":   runtime ~ median * N(1, 0.03)
//  - "wide":    runtime ~ median * N(1, 0.5) (clipped positive)
//  - "bimodal": median * N(1, 0.05) with 30% of runs at ~3x median.
struct SyntheticReference {
  sim::TelemetryStore store;
  GroupMedians medians;
  std::vector<int> tight_groups, wide_groups, bimodal_groups;
};

SyntheticReference MakeReference(int groups_per_family, int runs_per_group,
                                 uint64_t seed) {
  SyntheticReference ref;
  Rng rng(seed);
  int gid = 0;
  auto add_group = [&](int family) {
    const double median = rng.Uniform(50.0, 500.0);
    for (int i = 0; i < runs_per_group; ++i) {
      double factor = 1.0;
      if (family == 0) {
        factor = std::max(0.1, rng.Normal(1.0, 0.03));
      } else if (family == 1) {
        factor = std::max(0.1, rng.Normal(1.0, 0.5));
      } else {
        factor = rng.Bernoulli(0.3) ? rng.Normal(3.0, 0.1)
                                    : rng.Normal(1.0, 0.05);
        factor = std::max(0.1, factor);
      }
      sim::JobRun run;
      run.group_id = gid;
      run.runtime_seconds = median * factor;
      ref.store.Add(run);
    }
    ref.medians.Set(gid, median);
    if (family == 0) ref.tight_groups.push_back(gid);
    if (family == 1) ref.wide_groups.push_back(gid);
    if (family == 2) ref.bimodal_groups.push_back(gid);
    ++gid;
  };
  for (int g = 0; g < groups_per_family; ++g) {
    add_group(0);
    add_group(1);
    add_group(2);
  }
  return ref;
}

ShapeLibraryConfig SmallConfig(int clusters = 3) {
  ShapeLibraryConfig config;
  config.num_clusters = clusters;
  config.min_support = 10;
  config.kmeans.num_restarts = 5;
  return config;
}

TEST(ShapeLibraryTest, RecoversDistinctFamilies) {
  SyntheticReference ref = MakeReference(12, 60, 1);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  EXPECT_EQ(lib->num_clusters(), 3);
  // All groups of one family land in the same cluster, and the three
  // families get three distinct clusters.
  auto family_cluster = [&](const std::vector<int>& gids) {
    const int c0 = lib->ReferenceAssignment(gids[0]);
    for (int gid : gids) {
      EXPECT_EQ(lib->ReferenceAssignment(gid), c0) << "group " << gid;
    }
    return c0;
  };
  const int ct = family_cluster(ref.tight_groups);
  const int cw = family_cluster(ref.wide_groups);
  const int cb = family_cluster(ref.bimodal_groups);
  EXPECT_NE(ct, cw);
  EXPECT_NE(ct, cb);
  EXPECT_NE(cw, cb);
}

TEST(ShapeLibraryTest, ClustersOrderedByIqr) {
  SyntheticReference ref = MakeReference(12, 60, 2);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  for (int c = 1; c < lib->num_clusters(); ++c) {
    EXPECT_GE(lib->stats(c).iqr, lib->stats(c - 1).iqr);
  }
  // The tight family must be cluster 0 (smallest IQR).
  EXPECT_EQ(lib->ReferenceAssignment(ref.tight_groups[0]), 0);
}

TEST(ShapeLibraryTest, StatsMatchFamilyProperties) {
  SyntheticReference ref = MakeReference(12, 80, 3);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  const int tight = lib->ReferenceAssignment(ref.tight_groups[0]);
  const int bimodal = lib->ReferenceAssignment(ref.bimodal_groups[0]);
  // Tight cluster: tiny IQR around 1.0, p95 close to 1.
  EXPECT_LT(lib->stats(tight).iqr, 0.1);
  EXPECT_NEAR(lib->stats(tight).p95, 1.05, 0.1);
  // Bimodal cluster: p95 reaches the 3x mode.
  EXPECT_GT(lib->stats(bimodal).p95, 2.0);
  // Sample counts and groups add up.
  int64_t samples = 0;
  int groups = 0;
  for (int c = 0; c < lib->num_clusters(); ++c) {
    samples += lib->stats(c).num_samples;
    groups += lib->stats(c).num_groups;
  }
  EXPECT_EQ(samples, static_cast<int64_t>(ref.store.NumRuns()));
  EXPECT_EQ(groups, 36);
}

TEST(ShapeLibraryTest, ShapePmfsNormalized) {
  SyntheticReference ref = MakeReference(10, 50, 4);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  for (int c = 0; c < lib->num_clusters(); ++c) {
    const auto& pmf = lib->shape(c);
    EXPECT_EQ(static_cast<int>(pmf.size()), lib->grid().num_bins());
    EXPECT_NEAR(std::accumulate(pmf.begin(), pmf.end(), 0.0), 1.0, 1e-9);
    for (double v : pmf) EXPECT_GE(v, 0.0);
  }
}

TEST(ShapeLibraryTest, MinSupportFiltersGroups) {
  SyntheticReference ref = MakeReference(10, 15, 5);  // support 15 < 20
  ShapeLibraryConfig config = SmallConfig();
  config.min_support = 20;
  EXPECT_TRUE(ShapeLibrary::Build(ref.store, ref.medians, config)
                  .status()
                  .IsFailedPrecondition());
}

TEST(ShapeLibraryTest, RejectsBadConfig) {
  SyntheticReference ref = MakeReference(5, 30, 6);
  ShapeLibraryConfig config = SmallConfig();
  config.num_clusters = 0;
  EXPECT_FALSE(ShapeLibrary::Build(ref.store, ref.medians, config).ok());
  config = SmallConfig();
  config.num_bins = 1;
  EXPECT_FALSE(ShapeLibrary::Build(ref.store, ref.medians, config).ok());
  config = SmallConfig();
  config.smoothing_radius = -1;
  EXPECT_FALSE(ShapeLibrary::Build(ref.store, ref.medians, config).ok());
}

TEST(ShapeLibraryTest, DeltaNormalizationWorks) {
  SyntheticReference ref = MakeReference(12, 60, 7);
  ShapeLibraryConfig config = SmallConfig();
  config.normalization = Normalization::kDelta;
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, config);
  ASSERT_TRUE(lib.ok());
  EXPECT_DOUBLE_EQ(lib->grid().lo(), -900.0);
  // Delta IQRs are in seconds.
  EXPECT_GT(lib->stats(lib->num_clusters() - 1).iqr, 1.0);
}

TEST(ShapeLibraryTest, ObservationPmfSmoothedAndNormalized) {
  SyntheticReference ref = MakeReference(10, 50, 8);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  const auto pmf = lib->ObservationPmf({1.0, 1.0, 1.01, 0.99});
  EXPECT_NEAR(std::accumulate(pmf.begin(), pmf.end(), 0.0), 1.0, 1e-9);
  // Smoothing spreads mass over neighboring bins.
  int nonzero = 0;
  for (double v : pmf) nonzero += (v > 0.0);
  EXPECT_GT(nonzero, 2);
}

TEST(PosteriorAssignerTest, AssignsObservationsToOwnFamily) {
  SyntheticReference ref = MakeReference(12, 60, 9);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  PosteriorAssigner assigner(&*lib);

  Rng rng(10);
  // Fresh observations from each family (only 10 samples, like the paper's
  // Figure 6 example) must map to the family's cluster.
  auto draw_tight = [&] { return std::max(0.1, rng.Normal(1.0, 0.03)); };
  auto draw_bimodal = [&] {
    return rng.Bernoulli(0.3) ? rng.Normal(3.0, 0.1)
                              : rng.Normal(1.0, 0.05);
  };
  std::vector<double> tight_obs, bimodal_obs;
  for (int i = 0; i < 10; ++i) {
    tight_obs.push_back(draw_tight());
    bimodal_obs.push_back(draw_bimodal());
  }
  auto tight_cluster = assigner.Assign(tight_obs);
  ASSERT_TRUE(tight_cluster.ok());
  EXPECT_EQ(*tight_cluster, lib->ReferenceAssignment(ref.tight_groups[0]));
  auto bimodal_cluster = assigner.Assign(bimodal_obs);
  ASSERT_TRUE(bimodal_cluster.ok());
  EXPECT_EQ(*bimodal_cluster,
            lib->ReferenceAssignment(ref.bimodal_groups[0]));
}

TEST(PosteriorAssignerTest, LikelihoodRanksSimilarShapesHigher) {
  SyntheticReference ref = MakeReference(12, 60, 11);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  PosteriorAssigner assigner(&*lib);
  std::vector<double> obs(20, 1.0);  // spike at the median
  auto lls = assigner.LogLikelihoods(obs);
  ASSERT_TRUE(lls.ok());
  ASSERT_EQ(lls->size(), 3u);
  const int tight = lib->ReferenceAssignment(ref.tight_groups[0]);
  for (const ClusterLikelihood& cl : *lls) {
    if (cl.cluster != tight) {
      EXPECT_GT((*lls)[static_cast<size_t>(tight)].log_likelihood,
                cl.log_likelihood);
    }
  }
  ClusterLikelihood best;
  ASSERT_TRUE(assigner.Assign(obs, &best).ok());
  EXPECT_EQ(best.cluster, tight);
  EXPECT_LE(best.log_likelihood, 0.0);
}

TEST(PosteriorAssignerTest, LikelihoodScalesWithSampleSize) {
  // Equation 3: doubling the observations doubles the log-likelihood.
  SyntheticReference ref = MakeReference(10, 50, 12);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  PosteriorAssigner assigner(&*lib);
  std::vector<double> once = {0.9, 1.0, 1.1, 3.0};
  std::vector<double> twice = once;
  twice.insert(twice.end(), once.begin(), once.end());
  auto ll1 = assigner.LogLikelihoods(once);
  auto ll2 = assigner.LogLikelihoods(twice);
  ASSERT_TRUE(ll1.ok() && ll2.ok());
  for (size_t c = 0; c < ll1->size(); ++c) {
    EXPECT_NEAR((*ll2)[c].log_likelihood, 2.0 * (*ll1)[c].log_likelihood,
                1e-9);
  }
}

TEST(PosteriorAssignerTest, EmptyObservationsRejected) {
  SyntheticReference ref = MakeReference(10, 50, 13);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  PosteriorAssigner assigner(&*lib);
  EXPECT_TRUE(assigner.Assign({}).status().IsInvalidArgument());
}

// The dense raw-sample build, kept as the oracle for ShapeLibrary::Build:
// every finite normalized runtime of each qualifying group is retained,
// the group PMFs are clustered with the same k-means config, Table 2 stats
// are computed exactly from the pooled samples, and clusters are relabeled
// in increasing 25-75th-gap order, as Build does.
struct DenseReference {
  std::vector<std::vector<double>> shapes;
  std::vector<ShapeStats> stats;
  std::unordered_map<int, int> assignment;
};

DenseReference BuildDenseReference(const SyntheticReference& ref,
                                   const ShapeLibrary& lib) {
  const ShapeLibraryConfig& config = lib.config();
  std::vector<std::vector<double>> raw;
  std::vector<std::vector<double>> pmfs;
  std::vector<int> groups;
  for (int gid : ref.store.GroupsWithSupport(config.min_support)) {
    Result<std::vector<double>> normalized = NormalizedGroupRuntimes(
        ref.store, gid, ref.medians, config.normalization);
    if (!normalized.ok()) continue;
    std::vector<double> finite;
    for (double x : *normalized) {
      if (std::isfinite(x)) finite.push_back(x);
    }
    if (static_cast<int>(finite.size()) < config.min_support) continue;
    pmfs.push_back(lib.ObservationPmf(finite));
    raw.push_back(std::move(finite));
    groups.push_back(gid);
  }
  ml::KMeansConfig kconfig = config.kmeans;
  kconfig.k = config.num_clusters;
  Result<ml::KMeansModel> model = ml::KMeans(pmfs, kconfig);
  RVAR_CHECK(model.ok()) << model.status().ToString();

  const size_t k = static_cast<size_t>(config.num_clusters);
  const double outlier_at = OutlierThreshold(config.normalization);
  std::vector<std::vector<double>> pooled(k);
  std::vector<ShapeStats> stats(k);
  for (size_t g = 0; g < groups.size(); ++g) {
    const size_t c = static_cast<size_t>(model->assignments[g]);
    pooled[c].insert(pooled[c].end(), raw[g].begin(), raw[g].end());
    stats[c].num_groups++;
  }
  for (size_t c = 0; c < k; ++c) {
    std::vector<double>& samples = pooled[c];
    stats[c].num_samples = static_cast<int64_t>(samples.size());
    if (samples.empty()) continue;
    int64_t outliers = 0;
    for (double v : samples) outliers += (v >= outlier_at);
    stats[c].outlier_probability = static_cast<double>(outliers) /
                                   static_cast<double>(samples.size());
    std::sort(samples.begin(), samples.end());
    stats[c].iqr =
        QuantileSorted(samples, 0.75) - QuantileSorted(samples, 0.25);
    stats[c].p95 = QuantileSorted(samples, 0.95);
    stats[c].stddev = StdDev(samples);
  }

  std::vector<size_t> order(k);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return stats[a].iqr < stats[b].iqr;
  });
  std::vector<int> relabel(k);
  for (size_t new_id = 0; new_id < k; ++new_id) {
    relabel[order[new_id]] = static_cast<int>(new_id);
  }
  DenseReference dense;
  dense.shapes.resize(k);
  dense.stats.resize(k);
  for (size_t c = 0; c < k; ++c) {
    std::vector<double> shape = model->centroids[c];
    const double mass = std::accumulate(shape.begin(), shape.end(), 0.0);
    if (mass > 0.0) {
      for (double& v : shape) v /= mass;
    }
    const size_t id = static_cast<size_t>(relabel[c]);
    dense.shapes[id] = std::move(shape);
    dense.stats[id] = stats[c];
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    dense.assignment[groups[g]] =
        relabel[static_cast<size_t>(model->assignments[g])];
  }
  return dense;
}

int DenseAssignment(const DenseReference& dense, int gid) {
  const auto it = dense.assignment.find(gid);
  return it == dense.assignment.end() ? -1 : it->second;
}

// The sketch-vs-dense equivalence property: the same reference store
// built with bounded per-group sketches and with dense per-group buffers
// (the oracle above) must produce the same reference assignments and
// centroids/stats within the KLL rank-error tolerance. While groups stay
// under k observations the sketch is exact, so the match is bit-level up
// to double→float value rounding.
TEST(ShapeLibraryTest, SketchBuildMatchesDenseBuildExactModeGroups) {
  SyntheticReference ref = MakeReference(12, 60, 21);  // 60 < k: exact
  auto sketch = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const DenseReference dense = BuildDenseReference(ref, *sketch);
  ASSERT_EQ(static_cast<int>(dense.shapes.size()), sketch->num_clusters());
  for (int gid : ref.store.GroupIds()) {
    EXPECT_EQ(DenseAssignment(dense, gid), sketch->ReferenceAssignment(gid))
        << "group " << gid;
  }
  for (int c = 0; c < sketch->num_clusters(); ++c) {
    const auto& dp = dense.shapes[static_cast<size_t>(c)];
    const auto& sp = sketch->shape(c);
    ASSERT_EQ(dp.size(), sp.size());
    double l1 = 0.0;
    for (size_t h = 0; h < dp.size(); ++h) l1 += std::abs(dp[h] - sp[h]);
    // Exact mode: the only divergence is double→float rounding of raw
    // values near bin edges.
    EXPECT_LT(l1, 1e-3) << "cluster " << c;
    const ShapeStats& ds = dense.stats[static_cast<size_t>(c)];
    EXPECT_EQ(ds.num_samples, sketch->stats(c).num_samples);
    EXPECT_EQ(ds.num_groups, sketch->stats(c).num_groups);
    EXPECT_NEAR(ds.iqr, sketch->stats(c).iqr, 0.05);
    EXPECT_NEAR(ds.p95, sketch->stats(c).p95, 0.05);
    EXPECT_NEAR(ds.outlier_probability, sketch->stats(c).outlier_probability,
                1e-9);
  }
}

// Beyond k observations per group the sketch compacts; assignments and
// Ratio metrics must stay within the KLL tolerance of the dense oracle.
TEST(ShapeLibraryTest, SketchBuildMatchesDenseBuildBeyondExactMode) {
  SyntheticReference ref = MakeReference(6, 1500, 22);  // 1500 >> k = 200
  auto sketch = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const DenseReference dense = BuildDenseReference(ref, *sketch);
  for (int gid : ref.store.GroupIds()) {
    EXPECT_EQ(DenseAssignment(dense, gid), sketch->ReferenceAssignment(gid))
        << "group " << gid;
  }
  const double eps = KllSketch::NormalizedRankErrorBound(KllSketch::kDefaultK);
  for (int c = 0; c < sketch->num_clusters(); ++c) {
    const ShapeStats& ds = dense.stats[static_cast<size_t>(c)];
    // A quantile off by ε in rank moves by at most ε·n worth of mass;
    // on these distributions that is well under 4·ε in value.
    EXPECT_NEAR(ds.iqr, sketch->stats(c).iqr, 4.0 * eps * 4.0);
    EXPECT_NEAR(ds.p95, sketch->stats(c).p95, 4.0 * eps * 4.0);
    EXPECT_EQ(ds.num_samples, sketch->stats(c).num_samples);
    // Outlier probability and moments are tracked exactly alongside the
    // sketch, not reconstructed from it.
    EXPECT_NEAR(ds.outlier_probability, sketch->stats(c).outlier_probability,
                1e-12);
    EXPECT_NEAR(ds.stddev, sketch->stats(c).stddev, 1e-9);
  }
}

// ObservationPmfInto is the allocation-free spine of ObservationPmf: same
// bits, reusable buffer, and it reports how many observations were binned.
TEST(ShapeLibraryTest, ObservationPmfIntoMatchesAllocatingPath) {
  SyntheticReference ref = MakeReference(10, 50, 24);
  auto lib = ShapeLibrary::Build(ref.store, ref.medians, SmallConfig());
  ASSERT_TRUE(lib.ok());
  const std::vector<double> obs = {0.9, 1.0, 1.0, 1.1, 2.5,
                                   std::nan(""), 0.7};
  const std::vector<double> expected = lib->ObservationPmf(obs);
  std::vector<double> reused(7, 123.0);  // wrong size and dirty: both fixed
  const int64_t binned = lib->ObservationPmfInto(
      obs, lib->config().smoothing_radius, &reused);
  EXPECT_EQ(binned, 6);  // NaN skipped
  ASSERT_EQ(reused.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(reused[i], expected[i]) << "bin " << i;
  }
  // All-NaN input: zero binned, all-zero PMF.
  std::vector<double> empty_pmf;
  EXPECT_EQ(lib->ObservationPmfInto({std::nan("")}, 0, &empty_pmf), 0);
  for (double v : empty_pmf) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace rvar
