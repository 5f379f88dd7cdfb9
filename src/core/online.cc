#include "core/online.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/strings.h"

namespace rvar {
namespace core {

Status CheckObservation(int group_id, double normalized_runtime) {
  if (group_id < 0) {
    // A group keyed by a negative id would export a snapshot that restore
    // (ids >= 0) refuses to load.
    return Status::InvalidArgument(
        StrCat("group_id must be >= 0, got ", group_id));
  }
  if (!std::isfinite(normalized_runtime)) {
    // The tracker would clamp or drop the sample silently while the caller
    // saw OK, hiding a corrupt feed.
    return Status::InvalidArgument(
        StrCat("normalized_runtime must be finite, got ", normalized_runtime));
  }
  return Status::OK();
}

OnlineShapeTracker::OnlineShapeTracker(
    const ShapeLibrary* library, std::shared_ptr<const ClusterLogPmf> log_pmf,
    double decay, KllSketch sketch)
    : library_(library),
      decay_(decay),
      log_pmf_(std::move(log_pmf)),
      sketch_(std::move(sketch)) {
  ll_.assign(static_cast<size_t>(log_pmf_->num_clusters()), 0.0);
}

Result<OnlineShapeTracker> OnlineShapeTracker::Make(
    const ShapeLibrary* library, double decay, double pmf_floor) {
  if (library == nullptr) {
    return Status::InvalidArgument("null shape library");
  }
  RVAR_ASSIGN_OR_RETURN(std::shared_ptr<const ClusterLogPmf> table,
                        ClusterLogPmf::MakeShared(*library, pmf_floor));
  return Make(library, std::move(table), decay);
}

Result<OnlineShapeTracker> OnlineShapeTracker::Make(
    const ShapeLibrary* library, std::shared_ptr<const ClusterLogPmf> log_pmf,
    double decay, int sketch_k) {
  if (library == nullptr) {
    return Status::InvalidArgument("null shape library");
  }
  if (log_pmf == nullptr) {
    return Status::InvalidArgument("null cluster log-PMF table");
  }
  if (log_pmf->num_clusters() != library->num_clusters() ||
      log_pmf->num_bins() != library->grid().num_bins()) {
    return Status::InvalidArgument(
        StrCat("log-PMF table shape (", log_pmf->num_clusters(), " x ",
               log_pmf->num_bins(), ") does not match library (",
               library->num_clusters(), " x ", library->grid().num_bins(),
               ")"));
  }
  if (decay <= 0.0 || decay > 1.0) {
    return Status::InvalidArgument(
        StrCat("decay must be in (0,1], got ", decay));
  }
  RVAR_ASSIGN_OR_RETURN(KllSketch sketch, KllSketch::Make(sketch_k));
  return OnlineShapeTracker(library, std::move(log_pmf), decay,
                            std::move(sketch));
}

void OnlineShapeTracker::Observe(double normalized_runtime) {
  if (!std::isfinite(normalized_runtime)) {
    ++num_clamped_;
    if (std::isnan(normalized_runtime)) return;  // no information at all
    normalized_runtime = normalized_runtime > 0.0 ? library_->grid().hi()
                                                  : library_->grid().lo();
  }
  const int bin = library_->grid().BinIndex(normalized_runtime);
  for (size_t c = 0; c < ll_.size(); ++c) {
    ll_[c] = decay_ * ll_[c] + log_pmf_->row(static_cast<int>(c))[bin];
  }
  sketch_.UpdateClamped(library_->grid(), normalized_runtime);
  ++count_;
}

int OnlineShapeTracker::MostLikely() const {
  if (count_ == 0) return -1;
  return static_cast<int>(
      std::max_element(ll_.begin(), ll_.end()) - ll_.begin());
}

std::vector<double> OnlineShapeTracker::Posterior() const {
  std::vector<double> p(ll_.size(), 1.0 / static_cast<double>(ll_.size()));
  if (count_ == 0) return p;
  double mx = -std::numeric_limits<double>::infinity();
  for (double v : ll_) mx = std::max(mx, v);
  double sum = 0.0;
  for (size_t c = 0; c < ll_.size(); ++c) {
    p[c] = std::exp(ll_[c] - mx);
    sum += p[c];
  }
  for (double& v : p) v /= sum;
  return p;
}

double OnlineShapeTracker::ProbabilityOf(int cluster) const {
  RVAR_CHECK(cluster >= 0 &&
             static_cast<size_t>(cluster) < ll_.size());
  return Posterior()[static_cast<size_t>(cluster)];
}

GroupState OnlineShapeTracker::ExportState(int group_id) const {
  return GroupState{group_id, ll_, count_, num_clamped_, sketch_};
}

Status OnlineShapeTracker::RestoreState(GroupState state) {
  if (state.log_likelihood.size() != ll_.size()) {
    return Status::InvalidArgument(
        StrCat("group ", state.group_id, " restore holds ",
               state.log_likelihood.size(),
               " log-likelihood sums, library has ", ll_.size(),
               " clusters"));
  }
  for (double v : state.log_likelihood) {
    if (std::isnan(v) || v > 0.0) {
      // Sums of log-probabilities are <= 0; -inf (all mass at the floor)
      // is possible under extreme decay so only NaN and positives reject.
      return Status::InvalidArgument(
          "restored log-likelihood sums must be non-positive");
    }
  }
  if (state.count < 0 || state.num_clamped < 0) {
    return Status::InvalidArgument("restored counters must be >= 0");
  }
  if (state.sketch.n() != state.count) {
    // A NaN observation bumps num_clamped but neither count nor the
    // sketch, and everything else lands in both, so the two tallies agree
    // in any state Observe could have produced.
    return Status::InvalidArgument(
        StrCat("group ", state.group_id, " sketch holds ", state.sketch.n(),
               " observations but the tracker counted ", state.count));
  }
  ll_ = std::move(state.log_likelihood);
  count_ = state.count;
  num_clamped_ = state.num_clamped;
  sketch_ = std::move(state.sketch);
  return Status::OK();
}

void OnlineShapeTracker::Reset() {
  std::fill(ll_.begin(), ll_.end(), 0.0);
  count_ = 0;
  num_clamped_ = 0;
  sketch_ = *KllSketch::Make(sketch_.k());
}

}  // namespace core
}  // namespace rvar
