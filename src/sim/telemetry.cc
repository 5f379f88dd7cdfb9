#include "sim/telemetry.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>

#include "common/check.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace rvar {
namespace sim {

namespace {

/// Per-reason quarantine counters in the process registry, labeled with
/// the same reason names RecoveryReport-style accounting prints.
obs::Counter* QuarantineCounter(QuarantineReason reason) {
  static const std::array<obs::Counter*, kNumQuarantineReasons> counters = [] {
    std::array<obs::Counter*, kNumQuarantineReasons> c{};
    for (int i = 0; i < kNumQuarantineReasons; ++i) {
      c[static_cast<size_t>(i)] = obs::Registry::Default().GetCounter(
          "telemetry_quarantined_total", "reason",
          QuarantineReasonName(static_cast<QuarantineReason>(i)));
    }
    return c;
  }();
  return counters[static_cast<size_t>(reason)];
}

}  // namespace

const std::vector<size_t> TelemetryStore::kEmpty;

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kNonFiniteRuntime:
      return "non-finite-runtime";
    case QuarantineReason::kNegativeRuntime:
      return "negative-runtime";
    case QuarantineReason::kDuplicate:
      return "duplicate";
    case QuarantineReason::kMissingFeatures:
      return "missing-features";
    case QuarantineReason::kBadMetadata:
      return "bad-metadata";
  }
  return "unknown";
}

uint64_t TelemetryStore::RunKey(const JobRun& run) {
  uint64_t h = kFnvOffsetBasis;
  h = HashCombine(h, static_cast<uint64_t>(run.group_id));
  h = HashCombine(h, static_cast<uint64_t>(run.instance_id));
  return h;
}

void TelemetryStore::Add(JobRun run) {
  seen_.insert(RunKey(run));
  by_group_[run.group_id].push_back(runs_.size());
  runs_.push_back(std::move(run));
}

bool TelemetryStore::Validate(const JobRun& run,
                              QuarantineReason* reason) const {
  if (std::isnan(run.runtime_seconds) || std::isinf(run.runtime_seconds)) {
    *reason = QuarantineReason::kNonFiniteRuntime;
    return false;
  }
  if (run.runtime_seconds < 0.0) {
    *reason = QuarantineReason::kNegativeRuntime;
    return false;
  }
  if (!std::isfinite(run.input_gb) || run.input_gb < 0.0 ||
      !std::isfinite(run.submit_time)) {
    *reason = QuarantineReason::kBadMetadata;
    return false;
  }
  auto columns_ok = [](const std::vector<double>& v) {
    if (v.empty()) return false;
    for (double x : v) {
      if (!std::isfinite(x)) return false;
    }
    return true;
  };
  if (!columns_ok(run.sku_vertex_fraction) || !columns_ok(run.sku_cpu_util)) {
    *reason = QuarantineReason::kMissingFeatures;
    return false;
  }
  if (seen_.count(RunKey(run)) > 0) {
    *reason = QuarantineReason::kDuplicate;
    return false;
  }
  return true;
}

Status TelemetryStore::Ingest(JobRun run) {
  static obs::Counter* const ingest_total =
      obs::Registry::Default().GetCounter("telemetry_ingest_total");
  ingest_total->Increment();
  QuarantineReason reason;
  if (Validate(run, &reason)) {
    Add(std::move(run));
    return Status::OK();
  }
  QuarantineCounter(reason)->Increment();
  quarantine_counts_[static_cast<size_t>(reason)]++;
  const std::string message =
      StrCat("run (group ", run.group_id, ", instance ", run.instance_id,
             ") quarantined: ", QuarantineReasonName(reason));
  quarantined_.push_back(std::move(run));
  return reason == QuarantineReason::kDuplicate
             ? Status::AlreadyExists(message)
             : Status::InvalidArgument(message);
}

int64_t TelemetryStore::QuarantineCount(QuarantineReason reason) const {
  return quarantine_counts_[static_cast<size_t>(reason)];
}

const JobRun& TelemetryStore::run(size_t i) const {
  RVAR_CHECK_LT(i, runs_.size());
  return runs_[i];
}

std::vector<int> TelemetryStore::GroupIds() const {
  std::vector<int> ids;
  ids.reserve(by_group_.size());
  for (const auto& [gid, _] : by_group_) ids.push_back(gid);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const std::vector<size_t>& TelemetryStore::RunsOfGroup(int group_id) const {
  const auto it = by_group_.find(group_id);
  return it == by_group_.end() ? kEmpty : it->second;
}

int TelemetryStore::Support(int group_id) const {
  return static_cast<int>(RunsOfGroup(group_id).size());
}

std::vector<int> TelemetryStore::GroupsWithSupport(int min_support) const {
  std::vector<int> ids;
  for (const auto& [gid, idx] : by_group_) {
    if (static_cast<int>(idx.size()) >= min_support) ids.push_back(gid);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<double> TelemetryStore::GroupRuntimes(int group_id) const {
  std::vector<double> out;
  for (size_t i : RunsOfGroup(group_id)) {
    out.push_back(runs_[i].runtime_seconds);
  }
  return out;
}

std::string TelemetryStore::ToCsv(
    const std::vector<std::string>& sku_names) const {
  CsvWriter csv;
  std::vector<std::string> header = {
      "group_id",      "instance_id",    "submit_time",
      "runtime_s",     "rare_event",     "allocated_tokens",
      "max_tokens",    "avg_tokens",     "avg_spare_tokens",
      "input_gb",      "temp_data_gb",   "total_vertices",
      "num_stages",    "cpu_util_mean",  "cpu_util_std",
      "baseline_util", "spare_availability",
      "machine_faults", "vertex_retries", "spare_revoked"};
  for (const std::string& sku : sku_names) {
    header.push_back(StrCat("sku_frac_", sku));
  }
  for (const std::string& sku : sku_names) {
    header.push_back(StrCat("sku_util_", sku));
  }
  csv.AddRow(header);
  for (const JobRun& r : runs_) {
    RVAR_CHECK_EQ(r.sku_vertex_fraction.size(), sku_names.size());
    std::vector<std::string> row = {
        StrCat(r.group_id),
        StrCat(r.instance_id),
        FormatDouble(r.submit_time, 1),
        FormatDouble(r.runtime_seconds, 3),
        r.rare_event ? "1" : "0",
        StrCat(r.allocated_tokens),
        StrCat(r.max_tokens_used),
        FormatDouble(r.avg_tokens_used, 2),
        FormatDouble(r.avg_spare_tokens, 2),
        FormatDouble(r.input_gb, 3),
        FormatDouble(r.temp_data_gb, 3),
        StrCat(r.total_vertices),
        StrCat(r.num_stages),
        FormatDouble(r.cpu_util_mean, 4),
        FormatDouble(r.cpu_util_std, 4),
        FormatDouble(r.cluster_baseline_util, 4),
        FormatDouble(r.spare_availability, 4),
        StrCat(r.machine_faults),
        StrCat(r.vertex_retries),
        r.spare_revoked ? "1" : "0"};
    for (double f : r.sku_vertex_fraction) {
      row.push_back(FormatDouble(f, 4));
    }
    for (double u : r.sku_cpu_util) {
      row.push_back(FormatDouble(u, 4));
    }
    csv.AddRow(row);
  }
  return csv.contents();
}

Status TelemetryStore::ExportCsv(
    const std::string& path,
    const std::vector<std::string>& sku_names) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path);
  out << ToCsv(sku_names);
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

namespace {

// The fixed (non-SKU) columns of ToCsv, in order.
const char* const kCsvColumns[] = {
    "group_id",      "instance_id",    "submit_time",
    "runtime_s",     "rare_event",     "allocated_tokens",
    "max_tokens",    "avg_tokens",     "avg_spare_tokens",
    "input_gb",      "temp_data_gb",   "total_vertices",
    "num_stages",    "cpu_util_mean",  "cpu_util_std",
    "baseline_util", "spare_availability",
    "machine_faults", "vertex_retries", "spare_revoked"};
constexpr size_t kNumCsvColumns = std::size(kCsvColumns);

}  // namespace

Result<TelemetryStore> TelemetryStore::FromCsv(
    const std::string& csv, const std::vector<std::string>& sku_names) {
  RVAR_ASSIGN_OR_RETURN(CsvTable table, CsvTable::Parse(csv));

  // The header must match the export layout exactly; a shifted or renamed
  // column means the positional parse below would read the wrong fields.
  std::vector<std::string> expected(kCsvColumns,
                                    kCsvColumns + kNumCsvColumns);
  for (const std::string& sku : sku_names) {
    expected.push_back(StrCat("sku_frac_", sku));
  }
  for (const std::string& sku : sku_names) {
    expected.push_back(StrCat("sku_util_", sku));
  }
  if (table.header() != expected) {
    return Status::InvalidArgument(
        StrCat("CSV header does not match the telemetry export layout for ",
               sku_names.size(), " SKUs (", table.num_columns(),
               " columns, expected ", expected.size(), ")"));
  }

  TelemetryStore store;
  const size_t num_skus = sku_names.size();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    JobRun run;
    size_t c = 0;
    const auto next_int = [&]() -> Result<int64_t> {
      return table.IntegerCell(r, c++);
    };
    const auto next_num = [&]() -> Result<double> {
      return table.NumericCell(r, c++);
    };
    RVAR_ASSIGN_OR_RETURN(int64_t group_id, next_int());
    run.group_id = static_cast<int>(group_id);
    RVAR_ASSIGN_OR_RETURN(run.instance_id, next_int());
    RVAR_ASSIGN_OR_RETURN(run.submit_time, next_num());
    RVAR_ASSIGN_OR_RETURN(run.runtime_seconds, next_num());
    RVAR_ASSIGN_OR_RETURN(int64_t rare, next_int());
    run.rare_event = rare != 0;
    RVAR_ASSIGN_OR_RETURN(int64_t allocated, next_int());
    run.allocated_tokens = static_cast<int>(allocated);
    RVAR_ASSIGN_OR_RETURN(int64_t max_tokens, next_int());
    run.max_tokens_used = static_cast<int>(max_tokens);
    RVAR_ASSIGN_OR_RETURN(run.avg_tokens_used, next_num());
    RVAR_ASSIGN_OR_RETURN(run.avg_spare_tokens, next_num());
    RVAR_ASSIGN_OR_RETURN(run.input_gb, next_num());
    RVAR_ASSIGN_OR_RETURN(run.temp_data_gb, next_num());
    RVAR_ASSIGN_OR_RETURN(int64_t vertices, next_int());
    run.total_vertices = static_cast<int>(vertices);
    RVAR_ASSIGN_OR_RETURN(int64_t stages, next_int());
    run.num_stages = static_cast<int>(stages);
    RVAR_ASSIGN_OR_RETURN(run.cpu_util_mean, next_num());
    RVAR_ASSIGN_OR_RETURN(run.cpu_util_std, next_num());
    RVAR_ASSIGN_OR_RETURN(run.cluster_baseline_util, next_num());
    RVAR_ASSIGN_OR_RETURN(run.spare_availability, next_num());
    RVAR_ASSIGN_OR_RETURN(int64_t faults, next_int());
    run.machine_faults = static_cast<int>(faults);
    RVAR_ASSIGN_OR_RETURN(int64_t retries, next_int());
    run.vertex_retries = static_cast<int>(retries);
    RVAR_ASSIGN_OR_RETURN(int64_t revoked, next_int());
    run.spare_revoked = revoked != 0;
    run.sku_vertex_fraction.reserve(num_skus);
    for (size_t s = 0; s < num_skus; ++s) {
      RVAR_ASSIGN_OR_RETURN(double f, next_num());
      run.sku_vertex_fraction.push_back(f);
    }
    run.sku_cpu_util.reserve(num_skus);
    for (size_t s = 0; s < num_skus; ++s) {
      RVAR_ASSIGN_OR_RETURN(double u, next_num());
      run.sku_cpu_util.push_back(u);
    }
    // Well-formed CSV, but the values may still be hostile (negative
    // runtimes, duplicates): route through Ingest so they are quarantined
    // with exact accounting instead of silently indexed.
    (void)store.Ingest(std::move(run));
  }
  return store;
}

Result<TelemetryStore> TelemetryStore::ImportCsv(
    const std::string& path, const std::vector<std::string>& sku_names) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string csv((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed for " + path);
  return FromCsv(csv, sku_names);
}

}  // namespace sim
}  // namespace rvar
