// Copyright 2026 The rvar Authors.
//
// The shape library (Section 4.2): canonical runtime-distribution shapes
// discovered by clustering the smoothed PMFs of high-support job groups in
// the historic dataset (D1). Each shape carries the Table 2 statistics
// (outlier probability, 25-75th gap, 95th percentile, stddev) of the
// pooled normalized runtimes of its member groups. Each group is
// summarized by a KLL sketch (k = KllSketch::kDefaultK, DESIGN.md §15)
// rather than its raw samples, so the 25-75th gap and 95th percentile come
// from the members' merged sketches and carry the sketch's rank error; the
// sample count, outlier probability and stddev stay exact. Clusters are
// relabeled in increasing 25-75th-gap order, matching the paper's ranking.

#ifndef RVAR_CORE_SHAPE_LIBRARY_H_
#define RVAR_CORE_SHAPE_LIBRARY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/normalization.h"
#include "ml/kmeans.h"

namespace rvar {
namespace core {

/// \brief Knobs for shape discovery.
struct ShapeLibraryConfig {
  Normalization normalization = Normalization::kRatio;
  int num_bins = 200;
  /// Moving-average half-width applied to group PMFs before clustering
  /// (Section 4.2's smoothing step); 0 disables.
  int smoothing_radius = 3;
  /// Minimum runs per group to enter the clustering (the paper uses 20).
  int min_support = 20;
  int num_clusters = 8;
  ml::KMeansConfig kmeans;  ///< k is overridden by num_clusters
};

/// \brief One Table 2 row.
struct ShapeStats {
  double outlier_probability = 0.0;  ///< P(normalized >= outlier threshold)
  double iqr = 0.0;                  ///< 75th - 25th percentile
  double p95 = 0.0;
  double stddev = 0.0;
  int64_t num_samples = 0;
  int num_groups = 0;
};

/// \brief The discovered canonical shapes.
class ShapeLibrary {
 public:
  /// Clusters the group PMFs of `reference` (typically D1). Fails if fewer
  /// qualifying groups than clusters, or on invalid config. Degenerate
  /// groups — unknown/non-finite/non-positive median, or fewer than
  /// min_support finite observations — are skipped rather than failing the
  /// whole build; num_skipped_groups() reports how many.
  static Result<ShapeLibrary> Build(const sim::TelemetryStore& reference,
                                    const GroupMedians& medians,
                                    const ShapeLibraryConfig& config);

  /// Reassembles a library from persisted parts (io/serialize.h). Every
  /// invariant Build guarantees is re-validated — PMF lengths match the
  /// grid, values are finite, assignments point at real clusters — so a
  /// decoded-from-hostile-bytes library either equals a built one or the
  /// load fails with InvalidArgument; it never produces a library that
  /// crashes later.
  static Result<ShapeLibrary> Restore(
      const ShapeLibraryConfig& config,
      std::vector<std::vector<double>> shapes, std::vector<ShapeStats> stats,
      std::vector<int> reference_groups,
      std::unordered_map<int, int> reference_assignment, double inertia,
      int num_skipped_groups);

  const ShapeLibraryConfig& config() const { return config_; }
  Normalization normalization() const { return config_.normalization; }
  const BinGrid& grid() const { return grid_; }
  int num_clusters() const { return static_cast<int>(shapes_.size()); }

  /// Canonical PMF of cluster `k` (length num_bins, sums to 1).
  const std::vector<double>& shape(int k) const;

  /// Pooled-sample statistics of cluster `k` (the Table 2 row); see the
  /// file comment for which fields are exact.
  const ShapeStats& stats(int k) const;

  /// The global prior's argmax: the cluster holding the most pooled
  /// reference samples, lowest index on ties (so all-zero stats, e.g. a
  /// synthetic library, answer 0). The shape answered for a group with no
  /// observations.
  int GlobalPriorShape() const;

  /// Cluster assigned (by k-means) to a reference group, or -1 if the
  /// group did not qualify.
  int ReferenceAssignment(int group_id) const;

  /// Groups that entered the clustering.
  const std::vector<int>& reference_groups() const {
    return reference_groups_;
  }

  /// Qualifying groups rejected as degenerate during Build.
  int num_skipped_groups() const { return num_skipped_groups_; }

  /// K-means inertia of the final clustering.
  double inertia() const { return inertia_; }

  /// The smoothed, normalized PMF of an arbitrary observation vector on
  /// this library's grid — the representation clustering and assignment
  /// operate on.
  std::vector<double> ObservationPmf(
      const std::vector<double>& normalized_runtimes) const;

  /// ObservationPmf without the per-call allocations: `pmf` is resized to
  /// the grid and overwritten (capacity is reused across calls), and the
  /// smoothing half-width is explicit instead of taken from the config.
  /// Returns the number of observations binned (NaN skipped, ±inf clipped
  /// into the outlier bins); the PMF is all-zero when that is 0. With
  /// `radius == config().smoothing_radius` the result is bit-identical to
  /// ObservationPmf.
  int64_t ObservationPmfInto(const std::vector<double>& normalized_runtimes,
                             int radius, std::vector<double>* pmf) const;

  /// Turns per-bin observation *counts* (e.g. KllSketch::BinCountsInto
  /// output) into the smoothed, normalized observation PMF, in place.
  /// Applying this to a dense Histogram's counts reproduces
  /// ObservationPmf bit-for-bit.
  static void FinishObservationPmfInPlace(std::vector<double>* counts,
                                          int radius);

 private:
  ShapeLibrary() : grid_(CanonicalGrid(Normalization::kRatio)) {}

  ShapeLibraryConfig config_;
  BinGrid grid_;
  std::vector<std::vector<double>> shapes_;  ///< [cluster][bin]
  std::vector<ShapeStats> stats_;
  std::vector<int> reference_groups_;
  std::unordered_map<int, int> reference_assignment_;
  double inertia_ = 0.0;
  int num_skipped_groups_ = 0;
};

}  // namespace core
}  // namespace rvar

#endif  // RVAR_CORE_SHAPE_LIBRARY_H_
