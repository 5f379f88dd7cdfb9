// Golden prior answers: the FNV-1a hash of every group's
// ShapeService::PriorShape answer, of the ReconstructPmf bits, and of the
// PosteriorAssigner::LogLikelihoods bits, for a fixed library and a fixed
// observation stream, pinned to constants. The stream sends every group
// past the default sketch k (200), so the pinned answers cover compacted
// sketches, and it queries between observations so the served-shape memo
// is both hit and invalidated. A change to the Eq. 9 scorer's operation
// order, the sketch reconstruction or the prior fallback fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/assigner.h"
#include "core/normalization.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "sim/telemetry.h"

namespace rvar {
namespace core {
namespace {

constexpr uint64_t kPriorShapeHash = 0xc4f678c40c6e1b45ULL;
constexpr uint64_t kReconstructPmfHash = 0xd0414ca3af620becULL;
constexpr uint64_t kLogLikelihoodsHash = 0x50682411eefb9ffaULL;

constexpr int kGroups = 8;
constexpr int kObservationsPerGroup = 260;
constexpr int kUnknownGroup = 1000;

// Four families of reference groups — tight, wide, bimodal and
// straggler-tailed — clustered into four shapes.
ShapeLibrary GoldenLibrary() {
  sim::TelemetryStore store;
  GroupMedians medians;
  Rng rng(57);
  for (int gid = 0; gid < 24; ++gid) {
    const double median = rng.Uniform(50.0, 500.0);
    for (int i = 0; i < 40; ++i) {
      double factor;
      switch (gid % 4) {
        case 0: factor = rng.Normal(1.0, 0.03); break;
        case 1: factor = rng.Normal(1.0, 0.35); break;
        case 2:
          factor = rng.Bernoulli(0.4) ? rng.Normal(2.5, 0.1)
                                      : rng.Normal(1.0, 0.05);
          break;
        default:
          factor = rng.Bernoulli(0.1) ? rng.Pareto(3.0, 1.5)
                                      : rng.Normal(1.0, 0.08);
      }
      sim::JobRun run;
      run.group_id = gid;
      run.runtime_seconds = median * std::max(0.05, factor);
      store.Add(run);
    }
    medians.Set(gid, median);
  }
  ShapeLibraryConfig config;
  config.num_clusters = 4;
  config.min_support = 20;
  auto library = ShapeLibrary::Build(store, medians, config);
  EXPECT_TRUE(library.ok()) << library.status().ToString();
  return *std::move(library);
}

// One observation for group `gid`; groups mix the families so some sit
// between shapes. Values occasionally leave the grid on either side.
double Draw(Rng& rng, int gid, int i) {
  if (i % 113 == 0) return 40.0;
  if (i % 131 == 0) return 1e-3;
  switch (gid % 4) {
    case 0: return std::max(0.05, rng.Normal(1.0, 0.03 + 0.02 * gid));
    case 1: return rng.LogNormal(0.0, 0.3);
    case 2:
      return rng.Bernoulli(0.25 + 0.05 * gid) ? rng.Normal(2.5, 0.1)
                                              : rng.Normal(1.0, 0.05);
    default:
      return rng.Bernoulli(0.1) ? rng.Pareto(3.0, 1.5)
                                : std::max(0.05, rng.Normal(1.0, 0.08));
  }
}

uint64_t HashDouble(uint64_t h, double v) {
  return HashCombine(h, std::bit_cast<uint64_t>(v));
}

TEST(PriorGoldenTest, PriorShapeReconstructionAndLikelihoodBits) {
  const ShapeLibrary library = GoldenLibrary();
  auto service = ShapeService::Make(&library);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const PosteriorAssigner assigner(&library);

  Rng rng(59);
  std::vector<std::vector<double>> seen(kGroups);
  uint64_t prior_hash = kFnvOffsetBasis;
  // Round-robin over the groups; every 50 rounds, ask every group (plus
  // one never-observed group) for its prior answer twice, so answers are
  // pinned both just after an Observe and on a repeated query.
  for (int i = 0; i < kObservationsPerGroup; ++i) {
    for (int gid = 0; gid < kGroups; ++gid) {
      const double value = Draw(rng, gid, i);
      seen[static_cast<size_t>(gid)].push_back(value);
      ASSERT_TRUE((*service)->Observe(gid, value).ok());
    }
    if (i % 50 == 49 || i + 1 == kObservationsPerGroup) {
      for (int gid = 0; gid < kGroups; ++gid) {
        for (int repeat = 0; repeat < 2; ++repeat) {
          prior_hash = HashCombine(
              prior_hash, static_cast<uint64_t>((*service)->PriorShape(gid)));
        }
      }
      prior_hash = HashCombine(
          prior_hash,
          static_cast<uint64_t>((*service)->PriorShape(kUnknownGroup)));
    }
  }

  uint64_t pmf_hash = kFnvOffsetBasis;
  uint64_t ll_hash = kFnvOffsetBasis;
  for (int gid = 0; gid < kGroups; ++gid) {
    std::vector<double> pmf;
    ASSERT_TRUE((*service)->ReconstructPmf(gid, &pmf)) << gid;
    pmf_hash = HashCombine(pmf_hash, pmf.size());
    for (double v : pmf) pmf_hash = HashDouble(pmf_hash, v);

    auto lls = assigner.LogLikelihoods(seen[static_cast<size_t>(gid)]);
    ASSERT_TRUE(lls.ok()) << lls.status().ToString();
    for (const ClusterLikelihood& ll : *lls) {
      ll_hash = HashCombine(ll_hash, static_cast<uint64_t>(ll.cluster));
      ll_hash = HashDouble(ll_hash, ll.log_likelihood);
    }
  }

  EXPECT_EQ(prior_hash, kPriorShapeHash)
      << "PriorShape hash 0x" << std::hex << prior_hash;
  EXPECT_EQ(pmf_hash, kReconstructPmfHash)
      << "ReconstructPmf hash 0x" << std::hex << pmf_hash;
  EXPECT_EQ(ll_hash, kLogLikelihoodsHash)
      << "LogLikelihoods hash 0x" << std::hex << ll_hash;
}

}  // namespace
}  // namespace core
}  // namespace rvar
