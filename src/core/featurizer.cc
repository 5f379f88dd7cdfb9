#include "core/featurizer.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/strings.h"
#include "stats/descriptive.h"

namespace rvar {
namespace core {

Featurizer::Featurizer(const std::vector<sim::JobGroupSpec>* groups,
                       const sim::SkuCatalog* catalog)
    : catalog_(catalog) {
  RVAR_CHECK(groups != nullptr && catalog != nullptr);
  // The intrinsic features depend on the group alone: compute them once.
  plan_features_.reserve(groups->size() * kPlanFeatures);
  for (const sim::JobGroupSpec& group : *groups) {
    const sim::JobPlan& plan = group.plan;
    plan_features_.push_back(
        std::log(std::max(plan.estimated_cardinality, 1.0)));
    plan_features_.push_back(std::log(std::max(plan.estimated_cost, 1.0)));
    plan_features_.push_back(plan.num_stages);
    plan_features_.push_back(plan.TotalCostFactor());
    plan_features_.push_back(static_cast<double>(plan.nodes.size()));
    for (int count : plan.OperatorCounts()) plan_features_.push_back(count);
  }
  // Intrinsic plan features.
  names_ = {"log_est_cardinality", "log_est_cost", "num_stages",
            "total_cost_factor", "num_operators"};
  for (int op = 0; op < sim::kNumOperatorTypes; ++op) {
    names_.push_back(StrCat(
        "op_", sim::OperatorTypeName(static_cast<sim::OperatorType>(op))));
  }
  // Historic group aggregates.
  for (const char* n :
       {"hist_input_gb_mean", "hist_input_gb_std", "hist_temp_gb_mean",
        "hist_vertices_mean", "hist_max_tokens_mean", "hist_max_tokens_std",
        "hist_avg_tokens_mean", "hist_spare_tokens_mean",
        "hist_runtime_median"}) {
    names_.push_back(n);
  }
  for (size_t s = 0; s < catalog_->NumSkus(); ++s) {
    names_.push_back(StrCat("hist_sku_frac_", catalog_->sku(s).name));
  }
  // Allocation.
  names_.push_back("allocated_tokens");
  // Environment at submit.
  for (size_t s = 0; s < catalog_->NumSkus(); ++s) {
    names_.push_back(StrCat("sku_util_", catalog_->sku(s).name));
  }
  for (const char* n : {"cpu_util_mean", "cpu_util_std",
                        "cluster_baseline_util", "spare_availability",
                        "tod_sin", "tod_cos"}) {
    names_.push_back(n);
  }
  for (size_t i = 0; i < names_.size(); ++i) {
    name_index_[names_[i]] = static_cast<int>(i);
  }
}

void Featurizer::SetHistory(const sim::TelemetryStore& history) {
  history_.clear();
  const size_t num_skus = catalog_->NumSkus();
  for (int gid : history.GroupIds()) {
    GroupHistory h;
    RunningStats input, max_tokens;
    double temp = 0.0, vertices = 0.0, avg_tokens = 0.0, spare = 0.0;
    std::vector<double> sku_frac(num_skus, 0.0);
    const std::vector<size_t>& idx = history.RunsOfGroup(gid);
    for (size_t i : idx) {
      const sim::JobRun& run = history.run(i);
      input.Add(run.input_gb);
      max_tokens.Add(static_cast<double>(run.max_tokens_used));
      temp += run.temp_data_gb;
      vertices += run.total_vertices;
      avg_tokens += run.avg_tokens_used;
      spare += run.avg_spare_tokens;
      for (size_t s = 0; s < num_skus && s < run.sku_vertex_fraction.size();
           ++s) {
        sku_frac[s] += run.sku_vertex_fraction[s];
      }
    }
    // Historic runtime scale. Shape statistics of the historic runtimes
    // (COV, tail ratios) are deliberately NOT features: they are proxies
    // of the label itself and would break the counterfactual consistency
    // of the Section 7 what-if transforms.
    h.runtime_median = Median(history.GroupRuntimes(gid));
    const double n = static_cast<double>(idx.size());
    h.input_mean = input.mean();
    h.input_std = input.stddev();
    h.temp_mean = temp / n;
    h.vertices_mean = vertices / n;
    h.max_tokens_mean = max_tokens.mean();
    h.max_tokens_std = max_tokens.stddev();
    h.avg_tokens_mean = avg_tokens / n;
    h.spare_tokens_mean = spare / n;
    for (double& f : sku_frac) f /= n;
    h.sku_frac = std::move(sku_frac);
    history_[gid] = std::move(h);
  }
}

int Featurizer::IndexOf(const std::string& name) const {
  const auto it = name_index_.find(name);
  return it == name_index_.end() ? -1 : it->second;
}

Status Featurizer::FeaturesInto(const sim::JobRun& run, double* x) const {
  if (run.group_id < 0 || static_cast<size_t>(run.group_id) >=
                              plan_features_.size() / kPlanFeatures) {
    return Status::OutOfRange(
        StrCat("run references unknown group ", run.group_id));
  }
  const size_t num_skus = catalog_->NumSkus();
  // Intrinsic.
  double* p = std::copy_n(
      plan_features_.begin() +
          static_cast<ptrdiff_t>(static_cast<size_t>(run.group_id) *
                                 kPlanFeatures),
      kPlanFeatures, x);
  // Historic aggregates.
  const auto it = history_.find(run.group_id);
  if (it != history_.end()) {
    const GroupHistory& h = it->second;
    *p++ = h.input_mean;
    *p++ = h.input_std;
    *p++ = h.temp_mean;
    *p++ = h.vertices_mean;
    *p++ = h.max_tokens_mean;
    *p++ = h.max_tokens_std;
    *p++ = h.avg_tokens_mean;
    *p++ = h.spare_tokens_mean;
    *p++ = h.runtime_median;
    for (size_t s = 0; s < num_skus; ++s) {
      *p++ = s < h.sku_frac.size() ? h.sku_frac[s] : 0.0;
    }
  } else {
    // Cold start: the run's own telemetry stands in for group history,
    // with zero spread.
    *p++ = run.input_gb;
    *p++ = 0.0;
    *p++ = run.temp_data_gb;
    *p++ = run.total_vertices;
    *p++ = run.max_tokens_used;
    *p++ = 0.0;
    *p++ = run.avg_tokens_used;
    *p++ = run.avg_spare_tokens;
    *p++ = run.runtime_seconds;
    for (size_t s = 0; s < num_skus; ++s) {
      *p++ = s < run.sku_vertex_fraction.size() ? run.sku_vertex_fraction[s]
                                                : 0.0;
    }
  }
  // Allocation.
  *p++ = run.allocated_tokens;
  // Environment at submit.
  for (size_t s = 0; s < num_skus; ++s) {
    *p++ = s < run.sku_cpu_util.size() ? run.sku_cpu_util[s] : 0.0;
  }
  *p++ = run.cpu_util_mean;
  *p++ = run.cpu_util_std;
  *p++ = run.cluster_baseline_util;
  *p++ = run.spare_availability;
  const double day_frac =
      std::fmod(run.submit_time, 86400.0) / 86400.0;
  *p++ = std::sin(2.0 * M_PI * day_frac);
  *p++ = std::cos(2.0 * M_PI * day_frac);

  RVAR_CHECK_EQ(static_cast<size_t>(p - x), names_.size());
  return Status::OK();
}

Result<std::vector<double>> Featurizer::FeaturesFor(
    const sim::JobRun& run) const {
  std::vector<double> x(names_.size());
  RVAR_RETURN_NOT_OK(FeaturesInto(run, x.data()));
  return x;
}

Result<std::vector<std::vector<double>>> Featurizer::FeaturesForAll(
    const std::vector<const sim::JobRun*>& runs) const {
  // FeaturesInto only reads the plan features, the catalog and the frozen
  // history map, so rows build concurrently into indexed slots — identical output
  // to the serial loop at every thread count.
  std::vector<std::vector<double>> rows(runs.size());
  std::vector<Status> row_status(runs.size(), Status::OK());
  ParallelFor(runs.size(), /*grain=*/64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      rows[i].resize(names_.size());
      row_status[i] = FeaturesInto(*runs[i], rows[i].data());
    }
  });
  for (const Status& st : row_status) RVAR_RETURN_NOT_OK(st);
  return rows;
}

Result<ml::Dataset> Featurizer::BuildDataset(
    const sim::TelemetryStore& slice,
    const std::unordered_map<int, int>& group_labels) const {
  ml::Dataset d;
  d.feature_names = names_;
  std::vector<const sim::JobRun*> selected;
  for (const sim::JobRun& run : slice.runs()) {
    const auto it = group_labels.find(run.group_id);
    if (it == group_labels.end()) continue;
    selected.push_back(&run);
    d.y.push_back(it->second);
  }
  RVAR_ASSIGN_OR_RETURN(d.x, FeaturesForAll(selected));
  RVAR_RETURN_NOT_OK(d.Validate());
  return d;
}

Result<ml::Dataset> Featurizer::BuildRegressionDataset(
    const sim::TelemetryStore& slice) const {
  ml::Dataset d;
  d.feature_names = names_;
  std::vector<const sim::JobRun*> selected;
  for (const sim::JobRun& run : slice.runs()) {
    selected.push_back(&run);
    d.target.push_back(run.runtime_seconds);
  }
  RVAR_ASSIGN_OR_RETURN(d.x, FeaturesForAll(selected));
  RVAR_RETURN_NOT_OK(d.Validate());
  return d;
}

}  // namespace core
}  // namespace rvar
