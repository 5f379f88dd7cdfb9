#include "core/assigner.h"

#include <algorithm>
#include <cmath>

namespace rvar {
namespace core {

ClusterLogPmf ClusterLogPmf::Make(const ShapeLibrary& library) {
  ClusterLogPmf table;
  table.num_clusters_ = library.num_clusters();
  table.num_bins_ = library.grid().num_bins();
  table.log_pmf_.resize(static_cast<size_t>(table.num_clusters_) *
                        static_cast<size_t>(table.num_bins_));
  for (int c = 0; c < table.num_clusters_; ++c) {
    std::vector<double> floored = library.shape(c);
    double mass = 0.0;
    for (double& v : floored) {
      v = std::max(v, kPmfFloor);
      mass += v;
    }
    double* lp = table.log_pmf_.data() +
                 static_cast<size_t>(c) * table.num_bins_;
    for (int h = 0; h < table.num_bins_; ++h) {
      lp[h] = std::log(floored[static_cast<size_t>(h)] / mass);
    }
  }
  return table;
}

std::shared_ptr<const ClusterLogPmf> ClusterLogPmf::MakeShared(
    const ShapeLibrary& library) {
  return std::make_shared<const ClusterLogPmf>(Make(library));
}

PosteriorAssigner::PosteriorAssigner(const ShapeLibrary* library)
    : library_(library) {
  RVAR_CHECK(library != nullptr);
  log_pmf_ = ClusterLogPmf::MakeShared(*library);
}

PosteriorAssigner::PosteriorAssigner(
    const ShapeLibrary* library, std::shared_ptr<const ClusterLogPmf> log_pmf)
    : library_(library), log_pmf_(std::move(log_pmf)) {
  RVAR_CHECK(library_ != nullptr);
  RVAR_CHECK(log_pmf_ != nullptr);
  RVAR_CHECK_EQ(log_pmf_->num_clusters(), library_->num_clusters());
  RVAR_CHECK_EQ(log_pmf_->num_bins(), library_->grid().num_bins());
}

Status PosteriorAssigner::LogLikelihoodsInto(
    const std::vector<double>& normalized_runtimes,
    std::vector<ClusterLikelihood>* out,
    std::vector<double>* pmf_scratch) const {
  RVAR_CHECK(out != nullptr);
  RVAR_CHECK(pmf_scratch != nullptr);
  if (normalized_runtimes.empty()) {
    return Status::InvalidArgument(
        "cannot compute likelihoods for zero observations");
  }
  // The observation PMF phi of Equation 8, unsmoothed (radius 0) so that
  // N * phi_h is exactly the bin count n_h. NaN carries no shape
  // information and is skipped by the PMF path; if nothing binnable
  // remains there is no likelihood to compute.
  const int64_t num_binned =
      library_->ObservationPmfInto(normalized_runtimes, /*radius=*/0,
                                   pmf_scratch);
  if (num_binned == 0) {
    return Status::InvalidArgument(
        "all observations are NaN; cannot compute likelihoods");
  }
  const double n = static_cast<double>(num_binned);
  out->clear();
  out->reserve(static_cast<size_t>(log_pmf_->num_clusters()));
  for (int c = 0; c < log_pmf_->num_clusters(); ++c) {
    out->push_back({c, n * log_pmf_->Dot(c, *pmf_scratch)});
  }
  return Status::OK();
}

Result<std::vector<ClusterLikelihood>> PosteriorAssigner::LogLikelihoods(
    const std::vector<double>& normalized_runtimes) const {
  std::vector<ClusterLikelihood> out;
  std::vector<double> scratch;
  RVAR_RETURN_NOT_OK(LogLikelihoodsInto(normalized_runtimes, &out, &scratch));
  return out;
}

Result<int> PosteriorAssigner::Assign(
    const std::vector<double>& normalized_runtimes,
    ClusterLikelihood* best) const {
  RVAR_ASSIGN_OR_RETURN(std::vector<ClusterLikelihood> lls,
                        LogLikelihoods(normalized_runtimes));
  size_t best_idx = 0;
  for (size_t c = 1; c < lls.size(); ++c) {
    if (lls[c].log_likelihood > lls[best_idx].log_likelihood) {
      best_idx = c;
    }
  }
  if (best != nullptr) *best = lls[best_idx];
  return lls[best_idx].cluster;
}

}  // namespace core
}  // namespace rvar
