// Copyright 2026 The rvar Authors.
//
// Thread-safe serving facade over per-group OnlineShapeTracker state
// (DESIGN.md §13). Each group's tracker is its whole state: the running
// Eq. 3 sums behind the drift score (ProbabilityOf) and the KLL sketch the
// prior rung's shape answer (PriorShape) is scored from. The floor and the
// sketch k are the system constants kPmfFloor and KllSketch::kDefaultK.
// The serving pipeline observes normalized runtimes for many job groups
// from many client threads at once. State is partitioned into
// share-nothing shards by a multiplicative hash of the group id:
// each shard owns its tracker map, its own observation totals, its own
// obs counters, and its own replica of the published classifier epoch —
// so the observe/query hot path never takes a lock shared with another
// shard, and a model swap publishes shard-locally without a global lock.
// Observations for one group serialize on that group's shard, preserving
// the tracker's (deterministic) per-group observation order semantics.
//
// Snapshot semantics are shard-count independent: ExportState merges
// per-shard snapshots deterministically (shard-index order, then a global
// sort by group id), so the exported state — and therefore the
// io/serialize.h kShapeServiceState image — is byte-identical whether the
// service runs 1 shard or 64.

#ifndef RVAR_CORE_SHAPE_SERVICE_H_
#define RVAR_CORE_SHAPE_SERVICE_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/online.h"
#include "core/shape_library.h"
#include "ml/gbdt.h"
#include "obs/metrics.h"

namespace rvar {
namespace core {

/// \brief Concurrent per-group shape tracking over a fixed library.
///
/// All methods are safe to call from any number of threads. Group state is
/// created on first Observe; queries for never-observed groups give the
/// same answers as a fresh tracker (a drift score of 1/K, and
/// ShapeLibrary::GlobalPriorShape() as the shape).
class ShapeService {
 public:
  struct Options {
    /// Share-nothing shards; more shards = less cross-group contention.
    /// Must be >= 1. Exported state and every query answer are identical
    /// at any shard count.
    int num_shards = 16;
  };

  /// \param library must outlive the service and hold at least one
  /// cluster. Rejects num_shards < 1.
  static Result<std::unique_ptr<ShapeService>> Make(const ShapeLibrary* library,
                                                    Options options);
  static Result<std::unique_ptr<ShapeService>> Make(
      const ShapeLibrary* library) {
    return Make(library, Options());
  }

  /// Incorporates one normalized runtime for `group_id`, creating the
  /// group's tracker on first contact. Never blocks on other shards.
  /// Inputs that break CheckObservation (negative group ids, non-finite
  /// runtimes) are rejected with InvalidArgument and counted in
  /// shape_service_observe_rejected rather than clamped or dropped.
  Status Observe(int group_id, double normalized_runtime);

  /// The group's shape, the only shape answer the service gives (and the
  /// serving prior rung's, serve/frontend.cc): the Eq. 9 posterior argmax
  /// over per-bin counts rebuilt from the group's quantile sketch and
  /// scored against the shared log theta table;
  /// ShapeLibrary::GlobalPriorShape() for unknown or empty groups. The
  /// answer is memoized on the group until its next Observe, so repeated
  /// queries between observations cost one map lookup.
  int PriorShape(int group_id) const;

  /// Reconstructs the group's smoothed, normalized observation PMF (the
  /// ShapeLibrary::ObservationPmf representation) from its sketch into
  /// `pmf`. Returns false (and clears `pmf`) for unknown or empty groups,
  /// the same groups PriorShape answers from the global prior.
  bool ReconstructPmf(int group_id, std::vector<double>* pmf) const;

  /// Drift score: posterior probability (uniform prior, over the running
  /// Eq. 3 sums) that the group follows `cluster`. 1/K for unknown groups.
  double ProbabilityOf(int group_id, int cluster) const;

  /// Observations incorporated for the group (0 if unknown).
  int64_t GroupCount(int group_id) const;

  /// Total observations across all groups: per-shard counts merged in
  /// shard-index order (each shard maintains its total, so this never
  /// walks the tracker maps).
  int64_t TotalObservations() const;

  /// Number of groups with a tracker.
  size_t NumGroups() const;

  /// All tracked group ids, ascending.
  std::vector<int> TrackedGroups() const;

  /// Drops one group's state (e.g. after a group is decommissioned).
  /// Returns true if the group had a tracker.
  bool Forget(int group_id);

  /// Number of share-nothing shards.
  int num_shards() const { return static_cast<int>(num_shards_); }

  /// The shard that owns `group_id` — the routing hash serving front-ends
  /// use to build per-shard queues that match the service's partitioning.
  size_t ShardIndexFor(int group_id) const;

  /// Atomically publishes `model` as the serving classifier: the global
  /// slot first, then every shard's replica in shard-index order, all via
  /// atomic shared_ptr stores (RCU: readers holding a snapshot keep the
  /// previous version alive until they drop it, so a swap never blocks or
  /// invalidates an in-flight prediction, and no global lock is taken).
  /// Null clears the slot. Thread-safe.
  void SwapModel(std::shared_ptr<const ml::GbdtClassifier> model);

  /// The currently published model; null until the first SwapModel. The
  /// returned pointer is an immutable epoch — callers score a whole batch
  /// against one snapshot for version consistency. Lock-free.
  std::shared_ptr<const ml::GbdtClassifier> ModelSnapshot() const;

  /// The shard-local replica of the published model. During a swap,
  /// replicas update in shard-index order, so two shards may briefly
  /// serve different epochs — each shard-local batch is still scored
  /// against exactly one epoch. Lock-free.
  std::shared_ptr<const ml::GbdtClassifier> ModelSnapshotForShard(
      size_t shard_index) const;

  /// Point-in-time snapshot of every tracker, ascending by group id (all
  /// shards locked together, so concurrent Observes land entirely before
  /// or entirely after the export). Byte-identical at any shard count.
  /// Maintenance path: does not touch the contention counters.
  std::vector<GroupState> ExportState() const;

  /// Replaces all tracker state with `states` (the restart path): group
  /// ids must be >= 0 and strictly ascending, and each state must pass
  /// OnlineShapeTracker::RestoreState. Fully validated before anything is
  /// touched: on error the service is unchanged. Maintenance path: does
  /// not touch the contention counters.
  Status RestoreState(const std::vector<GroupState>& states);

  const ShapeLibrary& library() const { return *library_; }
  const Options& options() const { return options_; }

 private:
  /// One tracked group: its tracker and its memoized PriorShape answer
  /// (-1 until the first query after an Observe or a restore).
  struct GroupEntry {
    OnlineShapeTracker tracker;
    int prior_shape = -1;
  };

  /// One share-nothing partition: group map, observation total, obs
  /// counters, and a replica of the published model epoch. Nothing in a
  /// shard is ever touched under another shard's mutex.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<int, GroupEntry> groups;
    int64_t total_observations = 0;  ///< guarded by mu
    /// Shard-local epoch replica; atomic shared_ptr access only.
    std::shared_ptr<const ml::GbdtClassifier> model;
    obs::Counter* observe_total = nullptr;  ///< this shard's observes
    obs::Counter* contention = nullptr;     ///< contended hot-path locks
  };

  ShapeService(const ShapeLibrary* library, Options options,
               std::shared_ptr<const ClusterLogPmf> log_pmf);

  Shard& ShardFor(int group_id) const;
  /// Locks the shard for the observe/query hot path, counting the
  /// acquisition in the shard's contention counter when another thread
  /// already holds it. Snapshot/maintenance paths lock directly instead,
  /// so contention metrics only ever reflect serving traffic.
  std::unique_lock<std::mutex> LockShard(size_t shard_index) const;

  const ShapeLibrary* library_;
  Options options_;
  /// Shared log theta table (ClusterLogPmf): one copy serves every
  /// tracker in every shard plus the Eq. 9 prior scorer.
  std::shared_ptr<const ClusterLogPmf> log_pmf_;
  std::unique_ptr<Shard[]> shards_;
  size_t num_shards_;

  // The published classifier (global slot mirrored into every shard's
  // replica). Atomic shared_ptr access only — no mutex anywhere on the
  // model path.
  std::shared_ptr<const ml::GbdtClassifier> model_;

  // Metrics (obs/metrics.h): write-only, never consulted for results.
  obs::Histogram* observe_latency_;               ///< Observe() wall clock
  obs::Histogram* query_latency_;                 ///< PriorShape() wall clock
  obs::Counter* observe_total_;
  obs::Counter* observe_rejected_;  ///< negative ids / non-finite samples
  obs::Counter* model_swaps_total_;               ///< SwapModel() calls
};

}  // namespace core
}  // namespace rvar

#endif  // RVAR_CORE_SHAPE_SERVICE_H_
