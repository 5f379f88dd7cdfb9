// Copyright 2026 The rvar Authors.
//
// Telemetry storage: the joined view of job runs the paper assembles from
// Peregrine (plan features), execution logs (token skylines), and KEA
// (machine/SKU data) — Section 3.3. Runs are indexed by job group for the
// per-group distributional analyses.
//
// Production telemetry is not clean: joins drop records, clocks skew,
// deliveries duplicate. The store therefore has two ingestion paths:
// Add() appends trusted (simulator-produced) runs unconditionally, while
// Ingest() validates each run and quarantines corrupt ones — keeping the
// indexed view free of NaN/negative runtimes, duplicates, and
// missing-feature records, with exact queryable quarantine accounting.

#ifndef RVAR_SIM_TELEMETRY_H_
#define RVAR_SIM_TELEMETRY_H_

#include <array>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "sim/scheduler.h"

namespace rvar {
namespace sim {

/// \brief Why a run was rejected by TelemetryStore::Ingest.
enum class QuarantineReason : int {
  kNonFiniteRuntime = 0,  ///< NaN or infinite runtime
  kNegativeRuntime,       ///< runtime < 0 (clock skew, bad subtraction)
  kDuplicate,             ///< (group_id, instance_id) already stored
  kMissingFeatures,       ///< empty or non-finite feature columns
  kBadMetadata,           ///< non-finite input size / submit time
};
inline constexpr int kNumQuarantineReasons = 5;
const char* QuarantineReasonName(QuarantineReason reason);

/// \brief An append-only collection of executed job runs with a per-group
/// index.
class TelemetryStore {
 public:
  /// Appends a trusted run without validation (simulator output).
  void Add(JobRun run);

  /// Validates and appends one run. A corrupt run is quarantined — counted,
  /// retained for audit, excluded from every query — and the returned
  /// Status carries the reason (InvalidArgument for corrupt fields,
  /// AlreadyExists for duplicates). Ingestion order may be arbitrary;
  /// per-group views keep insertion order.
  Status Ingest(JobRun run);

  size_t NumRuns() const { return runs_.size(); }
  const std::vector<JobRun>& runs() const { return runs_; }
  const JobRun& run(size_t i) const;

  /// Runs rejected by Ingest, in rejection order.
  const std::vector<JobRun>& quarantined() const { return quarantined_; }
  size_t NumQuarantined() const { return quarantined_.size(); }
  int64_t QuarantineCount(QuarantineReason reason) const;

  /// Group ids present, ascending.
  std::vector<int> GroupIds() const;

  /// Indices (into runs()) of one group's runs, in insertion order; empty
  /// for unknown groups.
  const std::vector<size_t>& RunsOfGroup(int group_id) const;

  /// Number of recorded runs for a group.
  int Support(int group_id) const;

  /// Group ids with at least `min_support` runs, ascending.
  std::vector<int> GroupsWithSupport(int min_support) const;

  /// The group's runtimes, in insertion order.
  std::vector<double> GroupRuntimes(int group_id) const;

  /// Serializes every run as CSV (header + one row per run; SKU columns
  /// named by `sku_names`, which must match the runs' vector lengths).
  /// Useful for re-plotting figures with external tooling.
  std::string ToCsv(const std::vector<std::string>& sku_names) const;

  /// Writes ToCsv() to a file.
  Status ExportCsv(const std::string& path,
                   const std::vector<std::string>& sku_names) const;

  /// Parses a ToCsv()-format document back into a store (values at the
  /// exported precision). Strict: a missing or reordered header, a ragged
  /// row, or a non-numeric cell fails with InvalidArgument naming the
  /// offending row and column — never a silent misparse. Rows are
  /// installed via Ingest, so corrupt values in a well-formed CSV are
  /// quarantined rather than indexed.
  static Result<TelemetryStore> FromCsv(
      const std::string& csv, const std::vector<std::string>& sku_names);

  /// Reads FromCsv() from a file.
  static Result<TelemetryStore> ImportCsv(
      const std::string& path, const std::vector<std::string>& sku_names);

 private:
  /// True if the run is storable; otherwise sets `reason`.
  bool Validate(const JobRun& run, QuarantineReason* reason) const;

  /// Stable identity key for duplicate detection.
  static uint64_t RunKey(const JobRun& run);

  std::vector<JobRun> runs_;
  std::unordered_map<int, std::vector<size_t>> by_group_;
  std::vector<JobRun> quarantined_;
  std::array<int64_t, kNumQuarantineReasons> quarantine_counts_{};
  std::unordered_set<uint64_t> seen_;
  static const std::vector<size_t> kEmpty;
};

}  // namespace sim
}  // namespace rvar

#endif  // RVAR_SIM_TELEMETRY_H_
