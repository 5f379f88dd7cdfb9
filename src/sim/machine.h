// Copyright 2026 The rvar Authors.
//
// Individual compute nodes. A machine's CPU utilization at a given time is
// a deterministic function of cluster-wide diurnal load, a per-machine
// skew offset (load imbalance), and hash-derived noise, so utilization
// queries are reproducible without simulating every machine continuously.

#ifndef RVAR_SIM_MACHINE_H_
#define RVAR_SIM_MACHINE_H_

#include <cstdint>

#include "common/hash.h"

namespace rvar {
namespace sim {

/// \brief Static identity of one machine.
struct Machine {
  int id = 0;
  int sku_index = 0;
  /// Persistent utilization offset relative to the cluster baseline; the
  /// spread of these offsets is the cluster's load imbalance.
  double load_offset = 0.0;
  /// MachineNoiseKey(cluster seed, id), precomputed once per machine.
  uint64_t noise_key = 0;
};

/// The (cluster seed, machine id) prefix of a machine's noise hash. It is
/// constant per machine, so the cluster computes it once.
inline uint64_t MachineNoiseKey(uint64_t cluster_seed, int machine_id) {
  return HashCombine(cluster_seed, static_cast<uint64_t>(machine_id));
}

/// Noise in [-1, 1] for a machine's noise key and a time bucket.
inline double BucketNoise(uint64_t noise_key, int64_t time_bucket) {
  const uint64_t h =
      HashCombine(noise_key, static_cast<uint64_t>(time_bucket));
  // Map to [-1, 1].
  return 2.0 * (static_cast<double>(h >> 11) * 0x1.0p-53) - 1.0;
}

/// Deterministic per-(machine, time-bucket) noise in [-1, 1], derived from
/// a hash so repeated queries agree.
inline double MachineNoise(uint64_t cluster_seed, int machine_id,
                           int64_t time_bucket) {
  return BucketNoise(MachineNoiseKey(cluster_seed, machine_id), time_bucket);
}

}  // namespace sim
}  // namespace rvar

#endif  // RVAR_SIM_MACHINE_H_
