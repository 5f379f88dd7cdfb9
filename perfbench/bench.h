// Copyright 2026 The rvar Authors.
//
// Shared pieces of the rvar benchmark (perfbench/README.md): the
// benchmark-side span recorder, the per-run report, and the settings one
// workload runs with. Everything here sits outside the library and reaches
// rvar through its public headers only.

#ifndef RVAR_PERFBENCH_BENCH_H_
#define RVAR_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "ml/dataset.h"
#include "sim/datasets.h"

namespace rvar {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

/// Exact quantile of `values` (nearest rank over a sorted copy).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Benchmark-side tracing. Spans wrap the benchmark's own calls into a
// layer's public functions; they nest through a thread-local stack, are kept
// in memory, and are written out when the run ends. Off unless --trace 1.

struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for roots
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const SpanRecord& span);
  std::vector<SpanRecord> Spans() const;
  int64_t NowNs() const;

  /// Per-layer self time in seconds: each span's duration minus the part
  /// its child spans cover, summed by layer.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes every span as one JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  Tracer();
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call. Names and layers must be string literals.
class Span {
 public:
  Span(const char* name, const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  SpanRecord record_;
};

// ---------------------------------------------------------------------------
// The per-run report: metric samples, correctness checks, request accounting.

class Report {
 public:
  /// Appends one sample of a metric; run.py reports the median.
  void Add(const std::string& name, const std::string& unit, double value);
  /// Records one correctness check; any failed check fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Free-form numbers for the human-readable report (counts by reason...).
  void Info(const std::string& name, double value);
  /// Operations attempted and failed (shed, late, degraded or errored).
  void Account(int64_t attempted, int64_t failed);

  std::string ToJson() const;

 private:
  struct Metric {
    std::string unit;
    std::vector<double> samples;
  };
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::vector<CheckResult> checks_;
  std::map<std::string, double> info_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Workload settings (perfbench/workloads.json holds the same values with the
// reasons; main.cc fills these in).

struct ServeSettings {
  double nominal_rps = 0.0;
  int capacity_window = 0;  ///< requests in flight in the capacity phase
  double zipf_s = 1.1;
  int frontend_workers = 2;
  int batch_linger_us = 0;
  int deadline_ms = 50;  ///< per-request deadline budget
  int queue_capacity = 1024;  ///< aggregate admission queue capacity
  int pool_threads = 4;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int study_groups = 0;  ///< job groups of the simulated study
  std::string dir;  ///< scratch directory for registry and WAL files
  ServeSettings serve;
};

/// The trained offline pipeline every workload starts from.
struct Pipeline {
  sim::StudySuite suite;
  std::unique_ptr<core::VariationPredictor> predictor;
  double study_seconds = 0.0;
  double train_seconds = 0.0;
  double accuracy = 0.0;
  uint64_t shapes_hash = 0;    ///< FNV-1a over PredictShapeBatch(D3)
  std::vector<int> d3_oracle;   ///< PredictShapeBatch answer per D3 run
};

sim::SuiteConfig StudySuiteConfig(int num_groups);
core::PredictorConfig StandardPredictorConfig(uint64_t seed);

/// BuildStudySuite -> Train -> Evaluate (+ the D3 oracle), timed into
/// study_s / train_s and the sim/core spans.
Pipeline RunPipeline(const RunOptions& options, Report* report);

/// Traced runs: times each Train stage by calling its public function
/// directly, the GBDT fit at 1 and at the default thread count, and the
/// per-row serving kernels.
void RunStageBreakdown(const RunOptions& options, const Pipeline& pipeline,
                       Report* report);

/// The projected, labeled D2 dataset the model was fitted on.
ml::Dataset TrainingDataset(const Pipeline& pipeline);

/// Serving side: set-up, then the measured seconds as rounds, each a call
/// to `repeat_pipeline` (which returns its study_s) followed by nominal
/// traffic, a capacity phase, a retrain beside traffic and writes; then
/// recovery.
void RunOnline(const RunOptions& options, const Pipeline& pipeline,
               const std::function<double()>& repeat_pipeline, Report* report);

uint64_t Fnv1a(const std::vector<int>& values);

}  // namespace perfbench
}  // namespace rvar

#endif  // RVAR_PERFBENCH_BENCH_H_
