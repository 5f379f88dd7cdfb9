// Copyright 2026 The rvar Authors.
//
// Posterior-likelihood cluster membership (Section 5.2, Equations 1-9):
// given N normalized runtime observations of a job group, the posterior
// log-likelihood of cluster i is (up to a constant) the dot product of the
// observation PMF with the log of the cluster PMF:
//   log p(z_i | x_1..x_N) ~ sum_h phi_h log(theta_h^i)
// scaled by N when working with raw counts. The assigner labels a group
// with the most likely shape — this is how training/test labels are made.
//
// The floored log theta table itself lives in ClusterLogPmf so one
// immutable copy can be shared by every consumer (assigner, per-group
// online trackers, the sharded serving service): at 200 bins x 8 clusters
// the table is ~13 KB, which used to be duplicated per tracked group.

#ifndef RVAR_CORE_ASSIGNER_H_
#define RVAR_CORE_ASSIGNER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/shape_library.h"

namespace rvar {
namespace core {

/// Probability floor applied to every cluster PMF bin before taking logs,
/// so a bin no reference group reached scores log(kPmfFloor) instead of
/// -inf. One value for the whole system; the recovery snapshot header
/// still records it (io/recovery.cc).
inline constexpr double kPmfFloor = 1e-6;

/// \brief Immutable log of the floored, renormalized cluster PMFs.
///
/// Each row c holds log(theta_h^c) where theta was floored at kPmfFloor
/// and renormalized, flattened row-major as [cluster * num_bins + bin] so
/// Equation 9's per-cluster score is one contiguous dot product.
class ClusterLogPmf {
 public:
  /// `library` is only read during Make.
  static ClusterLogPmf Make(const ShapeLibrary& library);

  /// Make, boxed for sharing across trackers/shards.
  static std::shared_ptr<const ClusterLogPmf> MakeShared(
      const ShapeLibrary& library);

  int num_clusters() const { return num_clusters_; }
  int num_bins() const { return num_bins_; }

  /// Row of cluster `c` (length num_bins()).
  const double* row(int c) const {
    RVAR_CHECK(c >= 0 && c < num_clusters_);
    return log_pmf_.data() + static_cast<size_t>(c) * num_bins_;
  }

  /// Equation 9's inner product for cluster `c`: the sum over bins with
  /// weights[h] > 0 of weights[h] * log(theta_h^c), accumulated in
  /// ascending h. `weights` holds num_bins() per-bin counts or PMF mass.
  /// The assigner's labels and ShapeService's prior answers both score
  /// through here, so they share one operation order.
  double Dot(int c, const std::vector<double>& weights) const {
    RVAR_CHECK_EQ(weights.size(), static_cast<size_t>(num_bins_));
    const double* lp = row(c);
    double dot = 0.0;
    for (size_t h = 0; h < weights.size(); ++h) {
      if (weights[h] > 0.0) dot += weights[h] * lp[h];
    }
    return dot;
  }

 private:
  ClusterLogPmf() = default;

  std::vector<double> log_pmf_;
  int num_clusters_ = 0;
  int num_bins_ = 0;
};

/// \brief One cluster's likelihood score.
struct ClusterLikelihood {
  int cluster = 0;
  double log_likelihood = 0.0;
};

/// \brief Assigns observation sets to canonical shapes by posterior
/// likelihood.
class PosteriorAssigner {
 public:
  /// \param library must outlive the assigner.
  explicit PosteriorAssigner(const ShapeLibrary* library);

  /// Shares a prebuilt log table instead of building one; the table must
  /// have been built from `library`.
  PosteriorAssigner(const ShapeLibrary* library,
                    std::shared_ptr<const ClusterLogPmf> log_pmf);

  /// Log-likelihood per cluster (Equation 3: sum_n log theta_{h(x_n)});
  /// fails on empty observations. Routed through the library's
  /// observation-PMF path: NaN observations are skipped (and it is an
  /// error if nothing else remains), +-inf clips into the outlier bins.
  Result<std::vector<ClusterLikelihood>> LogLikelihoods(
      const std::vector<double>& normalized_runtimes) const;

  /// LogLikelihoods without the per-call allocations: `out` is overwritten
  /// with one entry per cluster and `pmf_scratch` is reused as the
  /// observation-PMF buffer. Both keep their capacity across calls.
  Status LogLikelihoodsInto(const std::vector<double>& normalized_runtimes,
                            std::vector<ClusterLikelihood>* out,
                            std::vector<double>* pmf_scratch) const;

  /// Most likely cluster; ties break to the smaller id. If `best` is
  /// non-null, receives the winning entry.
  Result<int> Assign(const std::vector<double>& normalized_runtimes,
                     ClusterLikelihood* best = nullptr) const;

 private:
  const ShapeLibrary* library_;
  std::shared_ptr<const ClusterLogPmf> log_pmf_;
};

}  // namespace core
}  // namespace rvar

#endif  // RVAR_CORE_ASSIGNER_H_
