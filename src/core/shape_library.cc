#include "core/shape_library.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/parallel.h"
#include "common/strings.h"
#include "stats/descriptive.h"
#include "stats/kll_sketch.h"

namespace rvar {
namespace core {

namespace {

Status ValidateConfig(const ShapeLibraryConfig& config) {
  if (config.num_clusters < 1) {
    return Status::InvalidArgument("num_clusters must be >= 1");
  }
  if (config.num_bins < 2) {
    return Status::InvalidArgument("num_bins must be >= 2");
  }
  if (config.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (config.smoothing_radius < 0) {
    return Status::InvalidArgument("smoothing_radius must be >= 0");
  }
  return Status::OK();
}

}  // namespace

Result<ShapeLibrary> ShapeLibrary::Build(
    const sim::TelemetryStore& reference, const GroupMedians& medians,
    const ShapeLibraryConfig& config) {
  RVAR_RETURN_NOT_OK(ValidateConfig(config));

  ShapeLibrary lib;
  lib.config_ = config;
  lib.grid_ = CanonicalGrid(config.normalization, config.num_bins);
  const double outlier_at = OutlierThreshold(config.normalization);

  // One smoothed PMF per qualifying group. Degenerate groups — no usable
  // median, or too few finite observations once corrupt values are
  // excluded — are skipped so one bad group cannot fail the whole build.
  const std::vector<int> candidates =
      reference.GroupsWithSupport(config.min_support);
  // Per-group normalization + PMF construction only reads the telemetry
  // store and medians, so candidates build concurrently into indexed slots;
  // the compaction below walks them in candidate order, preserving the
  // serial group ordering and skip counts.
  struct BuiltGroup {
    bool usable = false;
    std::vector<double> pmf;
    std::optional<KllSketch> sketch;  // bounded summary
    RunningStats moments;             // exact moment sums
    int64_t outliers = 0;             // count >= threshold
  };
  std::vector<BuiltGroup> built(candidates.size());
  ParallelFor(candidates.size(), /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      Result<std::vector<double>> normalized = NormalizedGroupRuntimes(
          reference, candidates[g], medians, config.normalization);
      if (!normalized.ok()) continue;
      BuiltGroup& out = built[g];
      // Stream every finite observation into bounded state instead of
      // retaining the raw vector: the sketch reconstructs the PMF and the
      // Table 2 quantiles, the moment accumulator keeps the stddev exact,
      // and the outlier tally is an exact counter.
      KllSketch sketch = *KllSketch::Make(KllSketch::kDefaultK);
      for (double x : *normalized) {
        if (!std::isfinite(x)) continue;
        sketch.Update(x);
        out.moments.Add(x);
        out.outliers += (x >= outlier_at);
      }
      if (sketch.n() < config.min_support) continue;
      sketch.BinCountsInto(lib.grid_, &out.pmf);
      FinishObservationPmfInPlace(&out.pmf, config.smoothing_radius);
      out.sketch.emplace(std::move(sketch));
      out.usable = true;
    }
  });

  std::vector<int> groups;
  std::vector<std::vector<double>> pmfs;
  std::vector<std::optional<KllSketch>> sketches;
  std::vector<RunningStats> moments;
  std::vector<int64_t> outlier_counts;
  groups.reserve(candidates.size());
  pmfs.reserve(candidates.size());
  for (size_t g = 0; g < candidates.size(); ++g) {
    if (!built[g].usable) {
      ++lib.num_skipped_groups_;
      continue;
    }
    groups.push_back(candidates[g]);
    pmfs.push_back(std::move(built[g].pmf));
    sketches.push_back(std::move(built[g].sketch));
    moments.push_back(built[g].moments);
    outlier_counts.push_back(built[g].outliers);
  }
  if (static_cast<int>(groups.size()) < config.num_clusters) {
    return Status::FailedPrecondition(
        StrCat("only ", groups.size(), " usable groups with support >= ",
               config.min_support, " (", lib.num_skipped_groups_,
               " degenerate) but ", config.num_clusters,
               " clusters requested"));
  }

  // Cluster the PMFs.
  ml::KMeansConfig kconfig = config.kmeans;
  kconfig.k = config.num_clusters;
  RVAR_ASSIGN_OR_RETURN(ml::KMeansModel model, ml::KMeans(pmfs, kconfig));
  lib.inertia_ = model.inertia;

  // Pool member groups per cluster; compute Table 2 stats.
  const int k = config.num_clusters;
  struct Entry {
    std::vector<double> pmf;
    ShapeStats stats;
  };
  std::vector<Entry> entries(static_cast<size_t>(k));
  std::vector<int> group_count(static_cast<size_t>(k), 0);
  for (int c = 0; c < k; ++c) {
    // Renormalize the centroid (k-means means of PMFs already ~sum to 1).
    Entry& e = entries[static_cast<size_t>(c)];
    e.pmf = model.centroids[static_cast<size_t>(c)];
    double mass = std::accumulate(e.pmf.begin(), e.pmf.end(), 0.0);
    if (mass > 0.0) {
      for (double& v : e.pmf) v /= mass;
    }
  }

  // Per-cluster aggregates: member sketches merge in ascending group
  // order, so the pooled quantiles are a deterministic function of the
  // cluster membership alone. Quantiles carry the sketch's rank-error
  // bound; sample count, outlier probability and stddev stay exact.
  std::vector<std::optional<KllSketch>> pooled(static_cast<size_t>(k));
  std::vector<RunningStats> pooled_moments(static_cast<size_t>(k));
  std::vector<int64_t> pooled_outliers(static_cast<size_t>(k), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    const size_t c = static_cast<size_t>(model.assignments[g]);
    if (!pooled[c].has_value()) {
      pooled[c].emplace(*KllSketch::Make(KllSketch::kDefaultK));
    }
    RVAR_RETURN_NOT_OK(pooled[c]->Merge(*sketches[g]));
    pooled_moments[c].Merge(moments[g]);
    pooled_outliers[c] += outlier_counts[g];
    group_count[c]++;
  }
  for (int c = 0; c < k; ++c) {
    Entry& e = entries[static_cast<size_t>(c)];
    e.stats.num_groups = group_count[static_cast<size_t>(c)];
    const std::optional<KllSketch>& sk = pooled[static_cast<size_t>(c)];
    if (sk.has_value() && !sk->empty()) {
      e.stats.num_samples = sk->n();
      e.stats.outlier_probability =
          static_cast<double>(pooled_outliers[static_cast<size_t>(c)]) /
          static_cast<double>(sk->n());
      e.stats.iqr = sk->Quantile(0.75) - sk->Quantile(0.25);
      e.stats.p95 = sk->Quantile(0.95);
      e.stats.stddev = pooled_moments[static_cast<size_t>(c)].stddev();
    }
  }

  // Rank clusters by increasing 25-75th gap (the paper's ordering).
  std::vector<int> order(static_cast<size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return entries[static_cast<size_t>(a)].stats.iqr <
           entries[static_cast<size_t>(b)].stats.iqr;
  });
  std::vector<int> relabel(static_cast<size_t>(k));
  for (int new_id = 0; new_id < k; ++new_id) {
    relabel[static_cast<size_t>(order[static_cast<size_t>(new_id)])] = new_id;
  }

  lib.shapes_.resize(static_cast<size_t>(k));
  lib.stats_.resize(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) {
    const int new_id = relabel[static_cast<size_t>(c)];
    lib.shapes_[static_cast<size_t>(new_id)] =
        std::move(entries[static_cast<size_t>(c)].pmf);
    lib.stats_[static_cast<size_t>(new_id)] =
        entries[static_cast<size_t>(c)].stats;
  }
  lib.reference_groups_ = groups;
  for (size_t g = 0; g < groups.size(); ++g) {
    lib.reference_assignment_[groups[g]] =
        relabel[static_cast<size_t>(model.assignments[g])];
  }
  return lib;
}

Result<ShapeLibrary> ShapeLibrary::Restore(
    const ShapeLibraryConfig& config,
    std::vector<std::vector<double>> shapes, std::vector<ShapeStats> stats,
    std::vector<int> reference_groups,
    std::unordered_map<int, int> reference_assignment, double inertia,
    int num_skipped_groups) {
  RVAR_RETURN_NOT_OK(ValidateConfig(config));
  const size_t k = static_cast<size_t>(config.num_clusters);
  if (shapes.size() != k || stats.size() != k) {
    return Status::InvalidArgument(
        StrCat("restore holds ", shapes.size(), " shapes and ", stats.size(),
               " stats rows for ", k, " clusters"));
  }
  for (size_t c = 0; c < k; ++c) {
    if (shapes[c].size() != static_cast<size_t>(config.num_bins)) {
      return Status::InvalidArgument(
          StrCat("cluster ", c, " PMF has ", shapes[c].size(),
                 " bins, grid has ", config.num_bins));
    }
    for (double v : shapes[c]) {
      if (!std::isfinite(v) || v < 0.0) {
        return Status::InvalidArgument(
            StrCat("cluster ", c, " PMF holds a non-finite or negative mass"));
      }
    }
    const ShapeStats& s = stats[c];
    if (!std::isfinite(s.outlier_probability) || !std::isfinite(s.iqr) ||
        !std::isfinite(s.p95) || !std::isfinite(s.stddev) ||
        s.num_samples < 0 || s.num_groups < 0) {
      return Status::InvalidArgument(
          StrCat("cluster ", c, " stats are corrupt"));
    }
  }
  if (!std::isfinite(inertia) || inertia < 0.0) {
    return Status::InvalidArgument("inertia must be finite and >= 0");
  }
  if (num_skipped_groups < 0) {
    return Status::InvalidArgument("num_skipped_groups must be >= 0");
  }
  for (const auto& [gid, cluster] : reference_assignment) {
    if (cluster < 0 || static_cast<size_t>(cluster) >= k) {
      return Status::InvalidArgument(
          StrCat("group ", gid, " assigned to unknown cluster ", cluster));
    }
  }

  ShapeLibrary lib;
  lib.config_ = config;
  lib.grid_ = CanonicalGrid(config.normalization, config.num_bins);
  lib.shapes_ = std::move(shapes);
  lib.stats_ = std::move(stats);
  lib.reference_groups_ = std::move(reference_groups);
  lib.reference_assignment_ = std::move(reference_assignment);
  lib.inertia_ = inertia;
  lib.num_skipped_groups_ = num_skipped_groups;
  return lib;
}

const std::vector<double>& ShapeLibrary::shape(int k) const {
  RVAR_CHECK(k >= 0 && static_cast<size_t>(k) < shapes_.size());
  return shapes_[static_cast<size_t>(k)];
}

const ShapeStats& ShapeLibrary::stats(int k) const {
  RVAR_CHECK(k >= 0 && static_cast<size_t>(k) < stats_.size());
  return stats_[static_cast<size_t>(k)];
}

int ShapeLibrary::GlobalPriorShape() const {
  int best = 0;
  for (int k = 1; k < num_clusters(); ++k) {
    if (stats(k).num_samples > stats(best).num_samples) best = k;
  }
  return best;
}

int ShapeLibrary::ReferenceAssignment(int group_id) const {
  const auto it = reference_assignment_.find(group_id);
  return it == reference_assignment_.end() ? -1 : it->second;
}

std::vector<double> ShapeLibrary::ObservationPmf(
    const std::vector<double>& normalized_runtimes) const {
  std::vector<double> pmf;
  ObservationPmfInto(normalized_runtimes, config_.smoothing_radius, &pmf);
  return pmf;
}

int64_t ShapeLibrary::ObservationPmfInto(
    const std::vector<double>& normalized_runtimes, int radius,
    std::vector<double>* pmf) const {
  RVAR_CHECK(pmf != nullptr);
  // NaN carries no shape information and must not be counted as a
  // low-outlier observation; infinities clip to the outlier bins.
  pmf->assign(static_cast<size_t>(grid_.num_bins()), 0.0);
  int64_t binned = 0;
  for (double x : normalized_runtimes) {
    if (std::isnan(x)) continue;
    (*pmf)[static_cast<size_t>(grid_.BinIndex(x))] += 1.0;
    ++binned;
  }
  FinishObservationPmfInPlace(pmf, radius);
  return binned;
}

void ShapeLibrary::FinishObservationPmfInPlace(std::vector<double>* counts,
                                               int radius) {
  RVAR_CHECK(counts != nullptr);
  double total = 0.0;
  for (double v : *counts) total += v;
  if (total > 0.0) {
    const double inv = 1.0 / total;
    for (double& v : *counts) v *= inv;
  }
  SmoothPmfInPlace(counts, radius);
}

}  // namespace core
}  // namespace rvar
