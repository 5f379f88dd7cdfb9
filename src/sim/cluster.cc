#include "sim/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace rvar {
namespace sim {
namespace {

constexpr double kSecondsPerDay = 86400.0;

double Clamp01Util(double u) { return std::clamp(u, 0.02, 0.98); }

}  // namespace

Cluster::Cluster(SkuCatalog catalog, ClusterConfig config)
    : catalog_(std::move(catalog)), config_(config) {}

Result<Cluster> Cluster::Make(const SkuCatalog& catalog,
                              const ClusterConfig& config) {
  if (config.mean_utilization <= 0.0 || config.mean_utilization >= 1.0) {
    return Status::InvalidArgument("mean_utilization must be in (0,1)");
  }
  if (config.diurnal_amplitude < 0.0 || config.load_imbalance < 0.0 ||
      config.noise_amplitude < 0.0) {
    return Status::InvalidArgument(
        "amplitudes and imbalance must be non-negative");
  }
  if (config.noise_period_seconds <= 0.0) {
    return Status::InvalidArgument("noise_period_seconds must be positive");
  }
  if (config.spare_exposure < 0.0 || config.spare_exposure > 1.0) {
    return Status::InvalidArgument("spare_exposure must be in [0,1]");
  }

  Cluster cluster(catalog, config);
  Rng rng(config.seed);
  cluster.by_sku_.resize(catalog.NumSkus());
  int id = 0;
  for (size_t s = 0; s < catalog.NumSkus(); ++s) {
    // Older SKUs run hotter (they host long-lived legacy placements) and
    // with a wider machine-to-machine spread.
    const double age = 1.0 - catalog.sku(s).speed;
    const double sku_offset = config.sku_heat_coupling * age;
    const double sku_spread = config.load_imbalance * (1.0 + age);
    for (int m = 0; m < catalog.sku(s).machine_count; ++m) {
      Machine machine;
      machine.id = id;
      machine.sku_index = static_cast<int>(s);
      machine.load_offset = sku_offset + rng.Normal(0.0, sku_spread);
      machine.noise_key = MachineNoiseKey(config.seed, id);
      cluster.by_sku_[s].push_back(id);
      cluster.machines_.push_back(machine);
      ++id;
    }
  }
  return cluster;
}

const std::vector<int>& Cluster::MachinesOfSku(int sku_index) const {
  RVAR_CHECK(sku_index >= 0 &&
             static_cast<size_t>(sku_index) < by_sku_.size());
  return by_sku_[static_cast<size_t>(sku_index)];
}

double Cluster::BaselineUtilization(double t_seconds) const {
  // Daily peak at ~12:00, trough at ~00:00 simulated time.
  const double phase = 2.0 * M_PI * (t_seconds / kSecondsPerDay - 0.25);
  return config_.mean_utilization +
         config_.diurnal_amplitude * std::sin(phase);
}

// Both helpers are private and used only in this file; `inline` keeps them
// in the hot per-machine loops below.
inline int64_t Cluster::NoiseBucket(double t_seconds) const {
  return static_cast<int64_t>(t_seconds / config_.noise_period_seconds);
}

inline double Cluster::UtilizationAt(const Machine& m, double baseline,
                                     int64_t bucket) const {
  const double noise =
      config_.noise_amplitude * BucketNoise(m.noise_key, bucket);
  return Clamp01Util(baseline + m.load_offset + noise);
}

double Cluster::MachineUtilization(int machine_id, double t_seconds) const {
  RVAR_CHECK(machine_id >= 0 &&
             static_cast<size_t>(machine_id) < machines_.size());
  return UtilizationAt(machines_[static_cast<size_t>(machine_id)],
                       BaselineUtilization(t_seconds), NoiseBucket(t_seconds));
}

void Cluster::SkuUtilization(int sku_index, double t_seconds, double* mean,
                             double* stddev) const {
  const std::vector<int>& ids = MachinesOfSku(sku_index);
  RVAR_CHECK(!ids.empty());
  const double baseline = BaselineUtilization(t_seconds);
  const int64_t bucket = NoiseBucket(t_seconds);
  // Subsample large SKU pools for cheap queries.
  const size_t step = std::max<size_t>(1, ids.size() / 64);
  double sum = 0.0, sumsq = 0.0;
  int n = 0;
  for (size_t i = 0; i < ids.size(); i += step) {
    const double u =
        UtilizationAt(machines_[static_cast<size_t>(ids[i])], baseline, bucket);
    sum += u;
    sumsq += u * u;
    ++n;
  }
  const double mu = sum / n;
  if (mean != nullptr) *mean = mu;
  if (stddev != nullptr) {
    const double var = std::max(0.0, sumsq / n - mu * mu);
    *stddev = std::sqrt(var);
  }
}

double Cluster::SpareAvailability(double t_seconds) const {
  const double idle = 1.0 - BaselineUtilization(t_seconds);
  // Noise bucket shared across the cluster: spare supply flickers.
  const double noise = 0.25 * MachineNoise(config_.seed ^ 0x5157ULL, -1,
                                          NoiseBucket(t_seconds));
  return std::clamp(config_.spare_exposure * idle * (1.0 + noise), 0.0, 1.0);
}

std::vector<int> Cluster::SamplePlacement(int count, double t_seconds,
                                          double greed, int preferred_sku,
                                          double preference, Rng* rng,
                                          std::vector<double>* utilization)
    const {
  RVAR_CHECK(rng != nullptr);
  RVAR_CHECK_GE(count, 0);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(count));
  if (utilization != nullptr) {
    utilization->clear();
    utilization->reserve(static_cast<size_t>(count));
  }
  const double baseline = BaselineUtilization(t_seconds);
  const int64_t bucket = NoiseBucket(t_seconds);
  const int total = static_cast<int>(machines_.size());
  // Every util is clamped into [0.02, 0.98], so the acceptance probability
  // lies strictly inside (0, 1) and Bernoulli draws exactly one Uniform();
  // at greed 1.5 the same draw is tested against the bracketed x^1.5.
  const bool three_halves = greed == 1.5;
  for (int k = 0; k < count; ++k) {
    const bool use_preferred =
        preferred_sku >= 0 && rng->Bernoulli(preference);
    const std::vector<int>* pool = nullptr;
    if (use_preferred) {
      pool = &MachinesOfSku(preferred_sku);
    }
    // Rejection-sample a lightly loaded machine: accept machine with
    // probability proportional to (1 - util)^greed.
    int chosen = -1;
    double chosen_util = 0.0;
    for (int attempt = 0; attempt < 8; ++attempt) {
      int candidate;
      if (pool != nullptr) {
        candidate = (*pool)[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(pool->size()) - 1))];
      } else {
        candidate = static_cast<int>(rng->UniformInt(0, total - 1));
      }
      const double util = UtilizationAt(
          machines_[static_cast<size_t>(candidate)], baseline, bucket);
      // Fall back to the last candidate if every attempt is rejected.
      chosen = candidate;
      chosen_util = util;
      const double idle = 1.0 - util;
      if (three_halves ? BelowPowThreeHalves(rng->Uniform(), idle)
                       : rng->Bernoulli(std::pow(idle, greed))) {
        break;
      }
    }
    out.push_back(chosen);
    if (utilization != nullptr) utilization->push_back(chosen_util);
  }
  return out;
}

}  // namespace sim
}  // namespace rvar
