// Copyright 2026 The rvar Authors.
//
// Online (incremental) shape tracking. The posterior log-likelihood of
// Section 5.2 factorizes over observations, so a group's cluster
// membership can be maintained as a running sum — one bin lookup per new
// run. The sums never forget: they are n times Eq. 9 over every run the
// group has seen, so ProbabilityOf (the drift score) falls once the runs
// since a shift outweigh the history before it, not at the first run that
// looks different.
//
// The tracker is the whole per-group state (DESIGN.md §7, §13, §15): it
// keeps both views of the group's observation PMF — the Eq. 3 running
// sums and a bounded KLL sketch of the raw observations — and updates
// both in one Observe. ShapeService (served) and io::RecoveryManager
// (durable) hold one tracker per group, and both checkpoint it as the
// same GroupState record (io/serialize.h).

#ifndef RVAR_CORE_ONLINE_H_
#define RVAR_CORE_ONLINE_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/assigner.h"
#include "stats/kll_sketch.h"

namespace rvar {
namespace core {

/// The boundary rule for served and durable observations: the group id
/// is >= 0 and the runtime finite. ShapeService::Observe and
/// io::RecoveryManager::Observe reject anything else with InvalidArgument
/// (and WAL replay drops it), so every tracker either one creates can be
/// checkpointed and restored.
Status CheckObservation(int group_id, double normalized_runtime);

/// One group's checkpointable state: the tracker's running sums and
/// counters plus its quantile sketch. This is the per-group record that
/// io/serialize.h encodes, identically, in the ShapeService image and in
/// the recovery snapshot.
struct GroupState {
  int group_id = 0;
  std::vector<double> log_likelihood;  ///< per-cluster Eq. 3 sums
  int64_t count = 0;
  int64_t num_clamped = 0;
  KllSketch sketch;  ///< bounded per-group summary; keeps its own k
};

/// \brief Streaming posterior over canonical shapes for one job group.
///
/// Maintains per-cluster log-likelihood sums (floored at kPmfFloor) plus
/// the group's KLL sketch (sketch(), k = KllSketch::kDefaultK), from which
/// ShapeService rebuilds the observation PMF on demand.
class OnlineShapeTracker {
 public:
  /// \param library must outlive the tracker.
  static Result<OnlineShapeTracker> Make(const ShapeLibrary* library);

  /// Make with a prebuilt, shared log table (one ~13 KB ClusterLogPmf can
  /// serve millions of trackers; the per-tracker state is then just the k
  /// running sums and the sketch). The table must have been built from
  /// `library`.
  static Result<OnlineShapeTracker> Make(
      const ShapeLibrary* library,
      std::shared_ptr<const ClusterLogPmf> log_pmf);

  /// Incorporates one normalized runtime observation into the sums and
  /// the sketch. Non-finite inputs degrade gracefully instead of
  /// poisoning the state: NaN is ignored, ±inf is clamped to the nearest
  /// grid edge; both are tallied in num_clamped(). So sketch().n() always
  /// equals count().
  void Observe(double normalized_runtime);

  /// Number of observations incorporated.
  int64_t count() const { return count_; }

  /// Non-finite observations seen so far (NaN dropped, ±inf clamped).
  int64_t num_clamped() const { return num_clamped_; }

  /// The group's quantile sketch over every counted observation (clamped
  /// into the library grid).
  const KllSketch& sketch() const { return sketch_; }

  /// Posterior probability (uniform prior) that the group is in
  /// `cluster` — the drift score: low values mean the runs seen so far
  /// look like another shape. 1/K before any observation.
  double ProbabilityOf(int cluster) const;

  /// This tracker's state, recorded as group `group_id`.
  GroupState ExportState(int group_id) const;

  /// Reinstalls a checkpointed state (the group id is the caller's key).
  /// Validates sizes and signs so a corrupt snapshot cannot poison the
  /// posterior, and requires the sketch to hold exactly `count` samples,
  /// as every state Observe produces does. The sketch keeps the k it was
  /// written with (any k the sketch codec accepts), so a record written
  /// with another k restores intact. On error the tracker is unchanged.
  Status RestoreState(GroupState state);

 private:
  OnlineShapeTracker(const ShapeLibrary* library,
                     std::shared_ptr<const ClusterLogPmf> log_pmf);

  const ShapeLibrary* library_;
  /// Shared immutable log theta table — NOT per-tracker state.
  std::shared_ptr<const ClusterLogPmf> log_pmf_;
  std::vector<double> ll_;
  int64_t count_ = 0;
  int64_t num_clamped_ = 0;
  KllSketch sketch_;
};

}  // namespace core
}  // namespace rvar

#endif  // RVAR_CORE_ONLINE_H_
