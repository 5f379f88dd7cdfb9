// Copyright 2026 The rvar Authors.
//
// Online (incremental) shape tracking. The posterior log-likelihood of
// Section 5.2 factorizes over observations, so a group's cluster
// membership can be maintained as a running sum — one bin lookup per new
// run — which turns the assigner into a streaming drift detector: as soon
// as recent runs stop looking like the group's historic shape, the
// posterior flips.
//
// The tracker is the whole per-group state (DESIGN.md §7, §13, §15): it
// keeps both views of the group's observation PMF — the discounted Eq. 3
// running sums and a bounded KLL sketch of the raw observations — and
// updates both in one Observe. ShapeService (served) and
// io::RecoveryManager (durable) hold one tracker per group, and both
// checkpoint it as the same GroupState record (io/serialize.h).

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

/// One group's checkpointable state: the tracker's discounted sums and
/// counters plus its quantile sketch. This is the per-group record that
/// io/serialize.h encodes, identically, in the ShapeService image and in
/// the recovery snapshot.
struct GroupState {
  int group_id = 0;
  std::vector<double> log_likelihood;  ///< per-cluster discounted sums
  int64_t count = 0;
  int64_t num_clamped = 0;
  KllSketch sketch;  ///< bounded per-group summary; keeps its own k
};

/// \brief Streaming posterior over canonical shapes for one job group.
///
/// Maintains per-cluster log-likelihood sums with optional exponential
/// decay, so old observations fade and the tracker follows the *current*
/// behavior of the group, plus the group's KLL sketch (sketch()), from
/// which ShapeService rebuilds the observation PMF on demand.
class OnlineShapeTracker {
 public:
  /// \param library must outlive the tracker.
  /// \param decay per-observation multiplier on past log-likelihood mass
  ///        in (0, 1]; 1 = never forget, 0.99 ≈ a ~100-run memory.
  /// \param pmf_floor probability floor before taking logs.
  static Result<OnlineShapeTracker> Make(const ShapeLibrary* library,
                                         double decay = 1.0,
                                         double pmf_floor = 1e-6);

  /// Make with a prebuilt, shared log table (one ~13 KB ClusterLogPmf can
  /// serve millions of trackers; the per-tracker state is then just the k
  /// running sums and the sketch). The table must have been built from
  /// `library`. `sketch_k` is the accuracy knob of the group's KLL
  /// sketch, in [KllSketch::kMinK, KllSketch::kMaxK].
  static Result<OnlineShapeTracker> Make(
      const ShapeLibrary* library,
      std::shared_ptr<const ClusterLogPmf> log_pmf, double decay = 1.0,
      int sketch_k = KllSketch::kDefaultK);

  /// Incorporates one normalized runtime observation into the sums and
  /// the sketch. Non-finite inputs degrade gracefully instead of
  /// poisoning the state: NaN is ignored, ±inf is clamped to the nearest
  /// grid edge; both are tallied in num_clamped(). So sketch().n() always
  /// equals count().
  void Observe(double normalized_runtime);

  /// Number of observations incorporated (undiscounted count).
  int64_t count() const { return count_; }

  /// Non-finite observations seen so far (NaN dropped, ±inf clamped).
  int64_t num_clamped() const { return num_clamped_; }

  /// Most likely cluster so far; -1 before any observation.
  int MostLikely() const;

  /// Posterior probabilities over clusters (uniform prior). Uniform
  /// before any observation.
  std::vector<double> Posterior() const;

  /// log-likelihood sums per cluster (the discounted Eq. 3 sums).
  const std::vector<double>& log_likelihood() const { return ll_; }

  /// The group's quantile sketch over every counted observation (clamped
  /// into the library grid).
  const KllSketch& sketch() const { return sketch_; }

  /// Posterior probability that the group is still in `cluster` — a
  /// drift score: low values mean recent runs look like another shape.
  double ProbabilityOf(int cluster) const;

  /// Forgets everything.
  void Reset();

  double decay() const { return decay_; }
  double pmf_floor() const { return log_pmf_->pmf_floor(); }

  /// This tracker's state, recorded as group `group_id`.
  GroupState ExportState(int group_id) const;

  /// Reinstalls a checkpointed state (the group id is the caller's key).
  /// Validates sizes and signs so a corrupt snapshot cannot poison the
  /// posterior, and requires the sketch to hold exactly `count` samples,
  /// as every state Observe produces does. The sketch keeps the k it was
  /// written with, whatever this tracker was made with. On error the
  /// tracker is unchanged.
  Status RestoreState(GroupState state);

 private:
  OnlineShapeTracker(const ShapeLibrary* library,
                     std::shared_ptr<const ClusterLogPmf> log_pmf,
                     double decay, KllSketch sketch);

  const ShapeLibrary* library_;
  double decay_;
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
