// ShapeService tests: single-threaded API behavior plus seeded
// multi-threaded stress. The disjoint-groups stress asserts exact
// equality against a serial tracker replay (per-group observation order
// is deterministic when one thread owns the group); the contended-group
// stress asserts observation accounting, and under -DRVAR_SANITIZE=thread
// doubles as the data-race probe for the shard locking.

#include "core/shape_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/normalization.h"
#include "core/online.h"
#include "core/shape_library.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "obs/metrics.h"

namespace rvar {
namespace core {
namespace {

// The group's running Eq. 3 sums as the service exports them; empty for
// an unknown group.
std::vector<double> SumsOf(const ShapeService& service, int gid) {
  for (const GroupState& state : service.ExportState()) {
    if (state.group_id == gid) return state.log_likelihood;
  }
  return {};
}

// The cluster the group's sums rank first (lowest index on ties).
int ArgmaxOfSums(const ShapeService& service, int gid) {
  const std::vector<double> sums = SumsOf(service, gid);
  return static_cast<int>(std::max_element(sums.begin(), sums.end()) -
                          sums.begin());
}

// The group's drift score for every cluster.
std::vector<double> DriftScores(const ShapeService& service, int gid) {
  std::vector<double> p;
  for (int c = 0; c < service.library().num_clusters(); ++c) {
    p.push_back(service.ProbabilityOf(gid, c));
  }
  return p;
}

// Library with two clearly distinct Ratio shapes: tight around 1 and
// bimodal {1, 3}.
class ShapeServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::TelemetryStore store;
    GroupMedians medians;
    Rng rng(41);
    int gid = 0;
    for (int family = 0; family < 2; ++family) {
      for (int g = 0; g < 8; ++g) {
        const double median = rng.Uniform(100.0, 300.0);
        for (int i = 0; i < 60; ++i) {
          const double factor =
              family == 0 ? std::max(0.2, rng.Normal(1.0, 0.04))
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
    ShapeLibraryConfig config;
    config.num_clusters = 2;
    config.min_support = 20;
    config.kmeans.num_restarts = 6;
    auto lib = ShapeLibrary::Build(store, medians, config);
    ASSERT_TRUE(lib.ok()) << lib.status().ToString();
    library_ = new ShapeLibrary(std::move(*lib));
  }
  static void TearDownTestSuite() {
    delete library_;
    library_ = nullptr;
  }

  // Deterministic per-group observation stream: a function of the group id
  // only, so a serial replay reproduces it exactly.
  static std::vector<double> StreamFor(int group_id, int n) {
    Rng rng(1000 + static_cast<uint64_t>(group_id));
    std::vector<double> xs;
    xs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const bool bimodal = group_id % 2 == 1;
      xs.push_back(bimodal ? (rng.Bernoulli(0.4) ? rng.Normal(3.0, 0.1)
                                                 : rng.Normal(1.0, 0.05))
                           : std::max(0.2, rng.Normal(1.0, 0.04)));
    }
    return xs;
  }

  static ShapeLibrary* library_;
};

ShapeLibrary* ShapeServiceTest::library_ = nullptr;

TEST_F(ShapeServiceTest, MakeRejectsBadArguments) {
  EXPECT_FALSE(ShapeService::Make(nullptr).ok());

  // The rejected option names itself in the message, so misconfiguration
  // reads as "which knob", not a tracker internals error.
  for (int shards : {0, -4}) {
    ShapeService::Options bad;
    bad.num_shards = shards;
    auto service = ShapeService::Make(library_, bad);
    ASSERT_FALSE(service.ok()) << "num_shards=" << shards;
    EXPECT_NE(service.status().message().find("options.num_shards"),
              std::string::npos)
        << service.status().ToString();
  }
}

TEST_F(ShapeServiceTest, ObserveRejectsNonFiniteRuntimes) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Observe(5, 1.0).ok());

  // Non-finite samples must be refused at the boundary with a status the
  // caller can see — never clamped or silently dropped inside the tracker.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    const Status status = (*service)->Observe(5, bad);
    ASSERT_FALSE(status.ok()) << "value=" << bad;
    EXPECT_NE(status.message().find("finite"), std::string::npos)
        << status.ToString();
  }
  // Rejected samples touch neither the counts nor the posterior.
  EXPECT_EQ((*service)->GroupCount(5), 1);
  EXPECT_EQ((*service)->TotalObservations(), 1);
}

// Regression (PR 8 satellite): a negative group id used to be able to
// grow a tracker whose exported snapshot RestoreState (ids >= 0) then
// refused to load — a legitimately exported checkpoint failing to
// restore. Negative ids must be refused at Observe, counted in
// shape_service_observe_rejected, and the export must round-trip.
TEST_F(ShapeServiceTest, NegativeGroupIdsAreRejectedCountedAndRestorable) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  obs::Counter* rejected =
      obs::Registry::Default().GetCounter("shape_service_observe_rejected");
  const int64_t rejected_before = rejected->Value();

  ASSERT_TRUE((*service)->Observe(11, 1.0).ok());
  for (int bad_gid : {-1, -7, std::numeric_limits<int>::min()}) {
    const Status status = (*service)->Observe(bad_gid, 1.0);
    ASSERT_FALSE(status.ok()) << "group_id=" << bad_gid;
    EXPECT_NE(status.message().find("group_id"), std::string::npos)
        << status.ToString();
  }
  // Counted, and no tracker was created for any rejected id.
  EXPECT_EQ(rejected->Value(), rejected_before + 3);
  EXPECT_EQ((*service)->NumGroups(), 1u);
  EXPECT_EQ((*service)->TotalObservations(), 1);

  // The round trip the bug used to break: everything Observe accepted
  // exports, and the export restores cleanly.
  const std::vector<GroupState> states =
      (*service)->ExportState();
  ASSERT_EQ(states.size(), 1u);
  auto restored = ShapeService::Make(library_);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->RestoreState(states).ok());
  EXPECT_EQ((*restored)->GroupCount(11), 1);
  EXPECT_EQ(DriftScores(**restored, 11), DriftScores(**service, 11));
}

TEST_F(ShapeServiceTest, GlobalPriorShapeIsAValidCluster) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  const int prior = library_->GlobalPriorShape();
  ASSERT_GE(prior, 0);
  ASSERT_LT(prior, library_->num_clusters());
  // The argmax of pooled reference mass: no cluster holds more samples.
  for (int k = 0; k < library_->num_clusters(); ++k) {
    EXPECT_LE(library_->stats(k).num_samples,
              library_->stats(prior).num_samples);
  }
  // It is the one fallback: the shape answer for unknown groups.
  EXPECT_EQ((*service)->PriorShape(123), prior);
}

TEST_F(ShapeServiceTest, UnknownGroupsAnswerFromUniformPrior) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  const int k = library_->num_clusters();
  EXPECT_EQ((*service)->PriorShape(123), library_->GlobalPriorShape());
  EXPECT_EQ((*service)->GroupCount(123), 0);
  EXPECT_EQ((*service)->NumGroups(), 0u);
  EXPECT_EQ((*service)->TotalObservations(), 0);
  const std::vector<double> p = DriftScores(**service, 123);
  ASSERT_EQ(static_cast<int>(p.size()), k);
  for (double v : p) EXPECT_DOUBLE_EQ(v, 1.0 / k);
}

TEST_F(ShapeServiceTest, ObserveRoutesToPerGroupTrackers) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE((*service)->Observe(-1, 1.0).ok());
  for (int gid : {3, 10, 17}) {
    for (double x : StreamFor(gid, 40)) {
      ASSERT_TRUE((*service)->Observe(gid, x).ok());
    }
  }
  EXPECT_EQ((*service)->NumGroups(), 3u);
  EXPECT_EQ((*service)->TotalObservations(), 120);
  EXPECT_EQ((*service)->TrackedGroups(), (std::vector<int>{3, 10, 17}));
  EXPECT_EQ((*service)->GroupCount(10), 40);
  // Odd groups stream bimodal, even groups tight; they must disagree.
  EXPECT_NE((*service)->PriorShape(3), (*service)->PriorShape(10));
  EXPECT_EQ((*service)->PriorShape(3), (*service)->PriorShape(17));

  EXPECT_TRUE((*service)->Forget(10));
  EXPECT_FALSE((*service)->Forget(10));
  EXPECT_EQ((*service)->NumGroups(), 2u);
  EXPECT_EQ((*service)->PriorShape(10), library_->GlobalPriorShape());
}

TEST_F(ShapeServiceTest, ConcurrentDisjointGroupsMatchSerialReplay) {
  constexpr int kThreads = 8;
  constexpr int kGroups = 64;
  constexpr int kObsPerGroup = 30;
  ShapeService::Options options;
  options.num_shards = 4;  // force shard sharing across groups
  auto service = ShapeService::Make(library_, options);
  ASSERT_TRUE(service.ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, t] {
      for (int gid = t; gid < kGroups; gid += kThreads) {
        for (double x : StreamFor(gid, kObsPerGroup)) {
          ASSERT_TRUE((*service)->Observe(gid, x).ok());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ((*service)->NumGroups(), static_cast<size_t>(kGroups));
  EXPECT_EQ((*service)->TotalObservations(),
            static_cast<int64_t>(kGroups) * kObsPerGroup);

  // One thread owned each group, so per-group observation order equals the
  // serial replay's and the sums and drift scores must match bit for bit.
  for (int gid = 0; gid < kGroups; ++gid) {
    auto reference = OnlineShapeTracker::Make(library_);
    ASSERT_TRUE(reference.ok());
    for (double x : StreamFor(gid, kObsPerGroup)) reference->Observe(x);
    EXPECT_EQ(SumsOf(**service, gid),
              reference->ExportState(gid).log_likelihood)
        << "group " << gid;
    for (int c = 0; c < library_->num_clusters(); ++c) {
      EXPECT_EQ((*service)->ProbabilityOf(gid, c), reference->ProbabilityOf(c))
          << "group " << gid << " cluster " << c;
    }
  }
}

TEST_F(ShapeServiceTest, ContendedGroupCountsEveryObservation) {
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 500;
  constexpr int kGroup = 7;
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, t] {
      Rng rng(7000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kObsPerThread; ++i) {
        const double x = rng.Bernoulli(0.4) ? rng.Normal(3.0, 0.1)
                                            : rng.Normal(1.0, 0.05);
        ASSERT_TRUE((*service)->Observe(kGroup, x).ok());
        // Interleave reads with the writes to stress the shard lock.
        if (i % 100 == 0) (*service)->ProbabilityOf(kGroup, 0);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ((*service)->GroupCount(kGroup),
            static_cast<int64_t>(kThreads) * kObsPerThread);
  EXPECT_EQ((*service)->TotalObservations(),
            static_cast<int64_t>(kThreads) * kObsPerThread);
  EXPECT_EQ((*service)->NumGroups(), 1u);
  // Every thread streamed bimodal data; the merged posterior must too.
  const std::vector<double> p = DriftScores(**service, kGroup);
  const int best = ArgmaxOfSums(**service, kGroup);
  ASSERT_GE(best, 0);
  EXPECT_GT(p[static_cast<size_t>(best)], 0.9);
  double mass = 0.0;
  for (double v : p) {
    EXPECT_TRUE(std::isfinite(v));
    mass += v;
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST_F(ShapeServiceTest, StateRoundTripsThroughExportRestore) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  for (int gid : {1, 4, 9}) {
    for (double x : StreamFor(gid, 25)) {
      ASSERT_TRUE((*service)->Observe(gid, x).ok());
    }
  }

  const std::vector<GroupState> states =
      (*service)->ExportState();
  ASSERT_EQ(states.size(), 3u);

  auto restored = ShapeService::Make(library_);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->RestoreState(states).ok());
  EXPECT_EQ((*restored)->NumGroups(), 3u);
  for (int gid : {1, 4, 9}) {
    EXPECT_EQ((*restored)->GroupCount(gid), 25);
    EXPECT_EQ(SumsOf(**restored, gid), SumsOf(**service, gid));
    EXPECT_EQ((*restored)->PriorShape(gid), (*service)->PriorShape(gid));
    EXPECT_EQ(DriftScores(**restored, gid), DriftScores(**service, gid));
  }

  // Restore is all-or-nothing: a malformed state leaves the target as-is.
  std::vector<GroupState> bad = states;
  bad[1].group_id = -3;
  auto target = ShapeService::Make(library_);
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE((*target)->Observe(2, 1.0).ok());
  EXPECT_FALSE((*target)->RestoreState(bad).ok());
  EXPECT_EQ((*target)->NumGroups(), 1u);
  EXPECT_EQ((*target)->GroupCount(2), 1);
  // Sums Observe cannot produce are refused the same way: each is a sum
  // of floored log-probabilities, finite and <= 0.
  for (double sum : {std::numeric_limits<double>::quiet_NaN(), 0.5,
                     -std::numeric_limits<double>::infinity()}) {
    bad = states;
    bad[1].log_likelihood[0] = sum;
    EXPECT_FALSE((*target)->RestoreState(bad).ok()) << "sum " << sum;
    EXPECT_EQ((*target)->NumGroups(), 1u);
    EXPECT_EQ((*target)->GroupCount(2), 1);
  }
}

// The serving prior rung (ISSUE 10): PriorShape answers from the group's
// sketch-reconstructed PMF scored against the shared log theta table, and
// falls back to the global prior for unknown or empty groups.
TEST_F(ShapeServiceTest, PriorShapeScoresReconstructedPmf) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  // Unknown group: the global prior, always a valid cluster.
  EXPECT_EQ((*service)->PriorShape(404), library_->GlobalPriorShape());
  for (int gid : {0, 1, 6, 7}) {
    for (double x : StreamFor(gid, 50)) {
      ASSERT_TRUE((*service)->Observe(gid, x).ok());
    }
  }
  // Below k the Eq. 9 argmax over the reconstructed counts agrees with
  // the argmax of the tracker's running sums: same tallies, same table,
  // different summation order.
  for (int gid : {0, 1, 6, 7}) {
    const int prior = (*service)->PriorShape(gid);
    EXPECT_GE(prior, 0);
    EXPECT_LT(prior, library_->num_clusters());
    EXPECT_EQ(prior, ArgmaxOfSums(**service, gid)) << "group " << gid;
  }
}

TEST_F(ShapeServiceTest, ReconstructPmfMatchesObservationPmf) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  const std::vector<double> xs = StreamFor(3, 80);  // < k: sketch is exact
  for (double x : xs) ASSERT_TRUE((*service)->Observe(3, x).ok());
  std::vector<double> reconstructed;
  ASSERT_TRUE((*service)->ReconstructPmf(3, &reconstructed));
  // Exact-mode reconstruction equals the library's dense ObservationPmf of
  // the same stream, up to double→float value rounding.
  const std::vector<double> dense = library_->ObservationPmf(xs);
  ASSERT_EQ(reconstructed.size(), dense.size());
  double l1 = 0.0;
  for (size_t i = 0; i < dense.size(); ++i) {
    l1 += std::abs(reconstructed[i] - dense[i]);
  }
  EXPECT_LT(l1, 1e-6);
  // Unknown group: false, and the output is cleared.
  std::vector<double> none = {1.0, 2.0};
  EXPECT_FALSE((*service)->ReconstructPmf(999, &none));
  EXPECT_TRUE(none.empty());
}

// The per-group PriorShape memo is a pure memo: on one shard holding more
// than 1,024 groups, queried round-robin, every answer (first or repeated)
// equals that of a service rebuilt from the exported state, which holds
// no memos. Observe invalidates the memo, and Forget and RestoreState
// start the group fresh.
TEST_F(ShapeServiceTest, PriorShapeMemoNeverChangesAnswers) {
  constexpr int kGroups = 1100;
  ShapeService::Options one_shard;
  one_shard.num_shards = 1;
  auto service = ShapeService::Make(library_, one_shard);
  ASSERT_TRUE(service.ok());
  for (int gid = 0; gid < kGroups; ++gid) {
    for (double x : StreamFor(gid, 12)) {
      ASSERT_TRUE((*service)->Observe(gid, x).ok());
    }
  }
  const std::vector<GroupState> initial = (*service)->ExportState();
  auto rebuilt = ShapeService::Make(library_, one_shard);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_TRUE((*rebuilt)->RestoreState(initial).ok());
  std::vector<int> fresh(kGroups);
  for (int gid = 0; gid < kGroups; ++gid) {
    fresh[static_cast<size_t>(gid)] = (*rebuilt)->PriorShape(gid);
  }
  for (int round = 0; round < 3; ++round) {
    for (int gid = 0; gid < kGroups; ++gid) {
      ASSERT_EQ((*service)->PriorShape(gid), fresh[static_cast<size_t>(gid)])
          << "round " << round << " group " << gid;
    }
  }

  // Group 0 streams tight; bimodal observations move its answer, so a
  // memo that survived Observe would answer the old shape.
  const int tight = fresh[0];
  for (double x : StreamFor(1, 60)) {
    ASSERT_TRUE((*service)->Observe(0, x).ok());
  }
  const int moved = (*service)->PriorShape(0);
  EXPECT_NE(moved, tight);
  auto after = ShapeService::Make(library_, one_shard);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE((*after)->RestoreState((*service)->ExportState()).ok());
  EXPECT_EQ(moved, (*after)->PriorShape(0));

  // Forget drops the memo with the group: the id answers the global
  // prior, then scores only what it observes afterwards.
  EXPECT_TRUE((*service)->Forget(0));
  EXPECT_EQ((*service)->PriorShape(0), library_->GlobalPriorShape());
  for (double x : StreamFor(0, 12)) {
    ASSERT_TRUE((*service)->Observe(0, x).ok());
  }
  EXPECT_EQ((*service)->PriorShape(0), tight);

  // RestoreState replaces every memo with the restored state's answer.
  for (double x : StreamFor(1, 60)) {
    ASSERT_TRUE((*service)->Observe(0, x).ok());
  }
  ASSERT_EQ((*service)->PriorShape(0), moved);
  ASSERT_TRUE((*service)->RestoreState(initial).ok());
  EXPECT_EQ((*service)->PriorShape(0), tight);
}

// A restored record with no observations (count 0, empty sketch) is the
// same group as one never observed: the global prior's shape, a uniform
// drift score, and no reconstructed PMF.
TEST_F(ShapeServiceTest, RestoredEmptyGroupAnswersLikeAnUnknownOne) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  const GroupState empty{
      /*group_id=*/9,
      std::vector<double>(static_cast<size_t>(library_->num_clusters()), 0.0),
      /*count=*/0, /*num_clamped=*/0, *KllSketch::Make(KllSketch::kDefaultK)};
  ASSERT_TRUE((*service)->RestoreState({empty}).ok());
  EXPECT_EQ((*service)->NumGroups(), 1u);
  EXPECT_EQ((*service)->GroupCount(9), 0);
  EXPECT_EQ((*service)->PriorShape(9), library_->GlobalPriorShape());
  for (double v : DriftScores(**service, 9)) {
    EXPECT_EQ(v, 1.0 / library_->num_clusters());
  }
  std::vector<double> pmf = {1.0};
  EXPECT_FALSE((*service)->ReconstructPmf(9, &pmf));
  EXPECT_TRUE(pmf.empty());
}

// Restore checks each group's sketch against its tracker: a sample count
// that disagrees with the tracker's is refused whole. A sketch written
// under another k restores as it is: restored groups keep the k their
// record carries, and groups created later use KllSketch::kDefaultK.
TEST_F(ShapeServiceTest, RestoreValidatesSketches) {
  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  for (double x : StreamFor(5, 20)) {
    ASSERT_TRUE((*service)->Observe(5, x).ok());
  }
  const std::vector<GroupState> states = (*service)->ExportState();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].sketch.n(), states[0].count);

  auto target = ShapeService::Make(library_);
  ASSERT_TRUE(target.ok());
  {
    std::vector<GroupState> bad = states;
    bad[0].count += 1;  // sketch.n() no longer matches
    auto status = (*target)->RestoreState(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("sketch"), std::string::npos);
  }
  EXPECT_EQ((*target)->NumGroups(), 0u);  // the rejection left it empty
  ASSERT_TRUE((*target)->RestoreState(states).ok());
  EXPECT_EQ((*target)->PriorShape(5), (*service)->PriorShape(5));

  // Right n, other k: the same stream summarized by a smallest-k sketch
  // (built here by hand; 20 observations make it compact) restores
  // intact, and both answers come from that sketch.
  KllSketch small = *KllSketch::Make(KllSketch::kMinK);
  for (double x : StreamFor(5, 20)) small.UpdateClamped(library_->grid(), x);
  std::vector<GroupState> small_states = states;
  small_states[0].sketch = small;
  ASSERT_TRUE((*target)->RestoreState(small_states).ok());
  EXPECT_EQ((*target)->ExportState()[0].sketch.k(), KllSketch::kMinK);
  std::vector<double> counts;
  small.BinCountsInto(library_->grid(), &counts);
  const ClusterLogPmf table = ClusterLogPmf::Make(*library_);
  int want_prior = 0;
  for (int c = 1; c < table.num_clusters(); ++c) {
    if (table.Dot(c, counts) > table.Dot(want_prior, counts)) want_prior = c;
  }
  EXPECT_EQ((*target)->PriorShape(5), want_prior);
  std::vector<double> want_pmf = counts;
  ShapeLibrary::FinishObservationPmfInPlace(
      &want_pmf, library_->config().smoothing_radius);
  std::vector<double> pmf_target;
  ASSERT_TRUE((*target)->ReconstructPmf(5, &pmf_target));
  EXPECT_EQ(pmf_target, want_pmf);
  // A group created after the restore uses the target's own k.
  ASSERT_TRUE((*target)->Observe(6, 1.0).ok());
  EXPECT_EQ((*target)->ExportState()[1].sketch.k(), KllSketch::kDefaultK);
}

// Satellite stress for the lifecycle hot swap: one writer flips the model
// slot between two fitted GBDTs while readers snapshot + score and other
// writers stream observations. Under -DRVAR_SANITIZE=thread this is the
// data-race probe for the epoch swap; in any build it asserts every
// reader saw a fully-published model (never a mix, never a torn pointer).
TEST_F(ShapeServiceTest, ModelSwapUnderConcurrentLoad) {
  ml::Dataset train;
  train.feature_names = {"x0", "x1"};
  Rng data_rng(83);
  const double centers[2][2] = {{0.0, 0.0}, {3.0, 3.0}};
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 80; ++i) {
      train.x.push_back({data_rng.Normal(centers[c][0], 0.5),
                         data_rng.Normal(centers[c][1], 0.5)});
      train.y.push_back(c);
      train.target.push_back(0.0);
    }
  }
  ml::GbdtConfig config_a;
  config_a.num_rounds = 6;
  config_a.max_leaves = 4;
  ml::GbdtConfig config_b = config_a;
  config_b.num_rounds = 10;
  auto model_a = std::make_shared<ml::GbdtClassifier>(config_a);
  auto model_b = std::make_shared<ml::GbdtClassifier>(config_b);
  ASSERT_TRUE(model_a->Fit(train).ok());
  ASSERT_TRUE(model_b->Fit(train).ok());

  auto service = ShapeService::Make(library_);
  ASSERT_TRUE(service.ok());
  (*service)->SwapModel(model_a);

  constexpr int kSwaps = 400;
  constexpr int kReaders = 4;
  constexpr int kObservers = 2;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // writer
    for (int i = 0; i < kSwaps; ++i) {
      (*service)->SwapModel(i % 2 == 0 ? model_b : model_a);
    }
    stop.store(true, std::memory_order_release);
  });
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t));
      std::vector<double> proba;
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const ml::GbdtClassifier> snapshot =
            (*service)->ModelSnapshot();
        if (snapshot != model_a && snapshot != model_b) {
          torn.fetch_add(1);
          continue;
        }
        // The snapshot pins the epoch: scoring stays valid even if the
        // writer swaps mid-batch.
        const std::vector<double> row = {rng.Normal(1.5, 1.0),
                                         rng.Normal(1.5, 1.0)};
        snapshot->PredictProbaInto(row, &proba);
        if (proba.size() != 2u) torn.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kObservers; ++t) {
    threads.emplace_back([&, t] {
      int gid = t;
      while (!stop.load(std::memory_order_acquire)) {
        for (double x : StreamFor(gid, 10)) {
          ASSERT_TRUE((*service)->Observe(gid, x).ok());
        }
        gid = (gid + kObservers) % 16;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0);
  const std::shared_ptr<const ml::GbdtClassifier> last =
      (*service)->ModelSnapshot();
  EXPECT_TRUE(last == model_a || last == model_b);
}

}  // namespace
}  // namespace core
}  // namespace rvar
