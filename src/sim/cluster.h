// Copyright 2026 The rvar Authors.
//
// The simulated analytics cluster: a fleet of heterogeneous machines with a
// time-varying utilization field and a spare-token supply that shrinks as
// the cluster heats up. This is the substrate for the paper's "physical
// cluster environment" sources of variation (Section 3.2): machine load /
// noisy neighbors, load imbalance across machines, and the unpredictable
// availability of preemptible spare tokens.

#ifndef RVAR_SIM_CLUSTER_H_
#define RVAR_SIM_CLUSTER_H_

#include <cmath>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "sim/machine.h"
#include "sim/sku.h"

namespace rvar {
namespace sim {

/// \brief Knobs controlling the cluster environment.
struct ClusterConfig {
  /// Mean CPU utilization across the fleet.
  double mean_utilization = 0.55;
  /// Amplitude of the diurnal (time-of-day) utilization swing.
  double diurnal_amplitude = 0.15;
  /// Stddev of per-machine persistent load offsets (load imbalance). The
  /// Section 7.3 what-if sets this to 0.
  double load_imbalance = 0.10;
  /// Older (slower) SKUs run hotter and more uneven: a SKU's machines get
  /// a mean utilization offset of sku_heat_coupling * (1 - speed) and an
  /// offset spread scaled by (1 + (1 - speed)).
  double sku_heat_coupling = 0.60;
  /// Amplitude of fast per-machine noise.
  double noise_amplitude = 0.08;
  /// Seconds per noise bucket (machine noise is constant within a bucket).
  double noise_period_seconds = 300.0;
  /// Fraction of idle capacity exposed as preemptible spare tokens.
  double spare_exposure = 0.8;
  uint64_t seed = 1234;
};

/// Whether `u < std::pow(x, 1.5)`, for x in [0.02, 0.98] (the idle share
/// 1 - utilization of a placement candidate at the default greed), decided
/// without `pow` unless `u` is a near-tie. sqrt is correctly rounded and
/// the product adds one rounding, so q = x * sqrt(x) is within 2^-52
/// relative of x^1.5; glibc's pow is within 1 ulp (2^-52 relative). The
/// two can differ by at most ~2^-51 q, so a draw below q - q * 2^-48 or at
/// or above q + q * 2^-48 (a bracket of >= 16 ulp each side, exact up to
/// the half-ulp rounding of its ends) is on the same side of both, and
/// only a draw inside the bracket pays for the pow call.
inline bool BelowPowThreeHalves(double u, double x) {
  const double q = x * std::sqrt(x);
  const double slack = q * 0x1p-48;
  if (u < q - slack) return true;
  if (u >= q + slack) return false;
  return u < std::pow(x, 1.5);
}

/// \brief A fleet of machines with queryable utilization and spare-token
/// supply. Immutable after construction; all queries are deterministic.
class Cluster {
 public:
  /// Builds the fleet from a catalog. Fails on invalid config values.
  static Result<Cluster> Make(const SkuCatalog& catalog,
                              const ClusterConfig& config);

  const SkuCatalog& catalog() const { return catalog_; }
  const ClusterConfig& config() const { return config_; }
  const std::vector<Machine>& machines() const { return machines_; }

  /// Machines of one SKU (indices into machines()).
  const std::vector<int>& MachinesOfSku(int sku_index) const;

  /// Cluster-wide baseline utilization at time t (diurnal sinusoid).
  double BaselineUtilization(double t_seconds) const;

  /// CPU utilization of one machine at time t, in [0.02, 0.98].
  double MachineUtilization(int machine_id, double t_seconds) const;

  /// Mean and stddev of utilization across a SKU's machines at time t
  /// (subsampled for large fleets).
  void SkuUtilization(int sku_index, double t_seconds, double* mean,
                      double* stddev) const;

  /// Fraction in [0,1] of the spare-token pool available at time t: spare
  /// supply is the exposed idle capacity, so it is anti-correlated with
  /// load and carries its own noise.
  double SpareAvailability(double t_seconds) const;

  /// Samples `count` machine ids for vertex placement. The scheduler
  /// prefers lightly loaded machines: machines are drawn with weight
  /// (1 - utilization)^greed. If `preferred_sku` >= 0, a `preference`
  /// fraction of draws is confined to that SKU. If `utilization` is
  /// non-null, it receives MachineUtilization(id, t_seconds) of each
  /// returned id, in the same order.
  std::vector<int> SamplePlacement(int count, double t_seconds,
                                   double greed, int preferred_sku,
                                   double preference, Rng* rng,
                                   std::vector<double>* utilization =
                                       nullptr) const;

 private:
  Cluster(SkuCatalog catalog, ClusterConfig config);

  /// Index of the noise bucket containing t_seconds.
  int64_t NoiseBucket(double t_seconds) const;

  /// Utilization of `m` given a query's baseline and noise bucket, which
  /// are the same for every machine a query touches.
  double UtilizationAt(const Machine& m, double baseline,
                       int64_t bucket) const;

  SkuCatalog catalog_;
  ClusterConfig config_;
  std::vector<Machine> machines_;
  std::vector<std::vector<int>> by_sku_;
};

}  // namespace sim
}  // namespace rvar

#endif  // RVAR_SIM_CLUSTER_H_
