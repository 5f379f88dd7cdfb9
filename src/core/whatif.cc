#include "core/whatif.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/parallel.h"
#include "common/strings.h"

namespace rvar {
namespace core {

WhatIfEngine::WhatIfEngine(const VariationPredictor* predictor)
    : predictor_(predictor) {
  RVAR_CHECK(predictor != nullptr);
}

Result<ScenarioResult> WhatIfEngine::Run(
    const sim::TelemetryStore& slice, const std::string& name,
    const FeatureTransform& transform) const {
  if (!transform) {
    return Status::InvalidArgument("scenario transform is empty");
  }
  const int k = predictor_->shapes().num_clusters();
  ScenarioResult result;
  result.name = name;
  result.transition_counts.assign(static_cast<size_t>(k),
                                  std::vector<int>(static_cast<size_t>(k), 0));

  // Each run's before/after prediction is independent; per-chunk count
  // matrices merge in chunk order (integer sums, so the totals are exact).
  // Both sides of every run score against one model epoch pinned here, so
  // a SwapModel during the scenario cannot pass for a feature-driven move.
  const std::shared_ptr<const ml::GbdtClassifier> model =
      predictor_->ModelSnapshot();
  const Featurizer& featurizer = predictor_->featurizer();
  const std::vector<sim::JobRun>& runs = slice.runs();
  struct Counts {
    std::vector<std::vector<int>> transitions;
    int num_runs = 0;
    int num_changed = 0;
    Status status = Status::OK();
  };
  Counts identity;
  identity.transitions.assign(static_cast<size_t>(k),
                              std::vector<int>(static_cast<size_t>(k), 0));
  Counts merged = ParallelReduce<Counts>(
      runs.size(), /*grain=*/32, std::move(identity),
      [&](size_t begin, size_t end) {
        Counts local;
        local.transitions.assign(
            static_cast<size_t>(k),
            std::vector<int>(static_cast<size_t>(k), 0));
        // One feature row and one scratch per chunk: every run in the
        // chunk is featurized into the same row, and both re-predictions
        // reuse the same projection/softmax buffers.
        PredictScratch scratch;
        std::vector<double> features;
        for (size_t i = begin; i < end; ++i) {
          // FeaturesInto fills FeatureNames().size() slots: resizing each
          // run keeps it in bounds whatever the last transform left.
          features.resize(featurizer.FeatureNames().size());
          if (Status st = featurizer.FeaturesInto(runs[i], features.data());
              !st.ok()) {
            local.status = std::move(st);
            return local;
          }
          Result<int> before =
              predictor_->PredictFromFeatures(*model, features, &scratch);
          if (!before.ok()) {
            local.status = before.status();
            return local;
          }
          transform(featurizer, &features);
          Result<int> after =
              predictor_->PredictFromFeatures(*model, features, &scratch);
          if (!after.ok()) {
            local.status = after.status();
            return local;
          }
          local.transitions[static_cast<size_t>(*before)]
                           [static_cast<size_t>(*after)]++;
          local.num_runs++;
          if (*before != *after) local.num_changed++;
        }
        return local;
      },
      [&](Counts acc, Counts part) {
        if (!acc.status.ok()) return acc;
        if (!part.status.ok()) return part;
        for (int f = 0; f < k; ++f) {
          for (int t = 0; t < k; ++t) {
            acc.transitions[static_cast<size_t>(f)][static_cast<size_t>(t)] +=
                part.transitions[static_cast<size_t>(f)]
                                [static_cast<size_t>(t)];
          }
        }
        acc.num_runs += part.num_runs;
        acc.num_changed += part.num_changed;
        return acc;
      });
  RVAR_RETURN_NOT_OK(merged.status);
  result.transition_counts = std::move(merged.transitions);
  result.num_runs = merged.num_runs;
  result.num_changed = merged.num_changed;

  // Row totals for per-source fractions.
  std::vector<int> from_totals(static_cast<size_t>(k), 0);
  for (int f = 0; f < k; ++f) {
    for (int t = 0; t < k; ++t) {
      from_totals[static_cast<size_t>(f)] +=
          result.transition_counts[static_cast<size_t>(f)]
                                  [static_cast<size_t>(t)];
    }
  }
  for (int f = 0; f < k; ++f) {
    for (int t = 0; t < k; ++t) {
      if (f == t) continue;
      const int count = result.transition_counts[static_cast<size_t>(f)]
                                                [static_cast<size_t>(t)];
      if (count == 0) continue;
      Migration m;
      m.from = f;
      m.to = t;
      m.count = count;
      m.fraction_of_total =
          result.num_runs > 0
              ? static_cast<double>(count) / result.num_runs
              : 0.0;
      m.fraction_of_from =
          from_totals[static_cast<size_t>(f)] > 0
              ? static_cast<double>(count) /
                    from_totals[static_cast<size_t>(f)]
              : 0.0;
      result.top_migrations.push_back(m);
    }
  }
  std::sort(result.top_migrations.begin(), result.top_migrations.end(),
            [](const Migration& a, const Migration& b) {
              return a.count > b.count;
            });
  return result;
}

namespace {

// Sets feature `name` to `value` if present; missing names are ignored so
// transforms compose across featurizer versions.
void SetFeature(const Featurizer& featurizer, std::vector<double>* x,
                const std::string& name, double value) {
  const int idx = featurizer.IndexOf(name);
  if (idx >= 0) (*x)[static_cast<size_t>(idx)] = value;
}

double GetFeature(const Featurizer& featurizer, const std::vector<double>& x,
                  const std::string& name) {
  const int idx = featurizer.IndexOf(name);
  return idx >= 0 ? x[static_cast<size_t>(idx)] : 0.0;
}

}  // namespace

FeatureTransform WhatIfEngine::DisableSpareTokens() {
  return [](const Featurizer& featurizer, std::vector<double>* x) {
    // The counterfactual world has no spare tokens anywhere, so every
    // token statistic collapses onto the guaranteed allocation.
    const double allocation = GetFeature(featurizer, *x, "allocated_tokens");
    SetFeature(featurizer, x, "hist_spare_tokens_mean", 0.0);
    SetFeature(featurizer, x, "spare_availability", 0.0);
    const double max_mean =
        GetFeature(featurizer, *x, "hist_max_tokens_mean");
    SetFeature(featurizer, x, "hist_max_tokens_mean",
               std::min(max_mean, allocation));
    const double avg_mean =
        GetFeature(featurizer, *x, "hist_avg_tokens_mean");
    SetFeature(featurizer, x, "hist_avg_tokens_mean",
               std::min(avg_mean, allocation));
    // Token-usage spread came from the fluctuating spare supply.
    if (max_mean > allocation) {
      SetFeature(featurizer, x, "hist_max_tokens_std", 0.0);
    }
  };
}

FeatureTransform WhatIfEngine::ShiftSkuVertices(const std::string& from_sku,
                                                const std::string& to_sku) {
  return [from_sku, to_sku](const Featurizer& featurizer,
                            std::vector<double>* x) {
    const std::string from_name = StrCat("hist_sku_frac_", from_sku);
    const std::string to_name = StrCat("hist_sku_frac_", to_sku);
    const double moved = GetFeature(featurizer, *x, from_name);
    SetFeature(featurizer, x, from_name, 0.0);
    SetFeature(featurizer, x, to_name,
               GetFeature(featurizer, *x, to_name) + moved);
    // The moved vertices now experience the destination SKU's machine
    // utilization instead of the source's.
    const double util_from =
        GetFeature(featurizer, *x, StrCat("sku_util_", from_sku));
    const double util_to =
        GetFeature(featurizer, *x, StrCat("sku_util_", to_sku));
    const double util_mean = GetFeature(featurizer, *x, "cpu_util_mean");
    SetFeature(featurizer, x, "cpu_util_mean",
               util_mean + moved * (util_to - util_from));
  };
}

FeatureTransform WhatIfEngine::EqualizeLoad() {
  return [](const Featurizer& featurizer, std::vector<double>* x) {
    SetFeature(featurizer, x, "cpu_util_std", 0.0);
    // Collapse per-SKU utilizations onto their mean, and pull the job's
    // own machines to that mean too (equal load on all machines means no
    // job sits in a hot pocket).
    std::vector<int> sku_idx;
    double mean = 0.0;
    for (size_t f = 0; f < featurizer.FeatureNames().size(); ++f) {
      const std::string& name = featurizer.FeatureNames()[f];
      if (StartsWith(name, "sku_util_")) {
        sku_idx.push_back(static_cast<int>(f));
        mean += (*x)[f];
      }
    }
    if (!sku_idx.empty()) {
      mean /= static_cast<double>(sku_idx.size());
      for (int f : sku_idx) (*x)[static_cast<size_t>(f)] = mean;
      SetFeature(featurizer, x, "cpu_util_mean", mean);
    }
  };
}

}  // namespace core
}  // namespace rvar
