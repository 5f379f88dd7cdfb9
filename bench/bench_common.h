// Copyright 2026 The rvar Authors.
//
// Shared setup for the bench binaries: a standard simulated study suite
// (scaled-down Table 1 datasets) and standard predictor configurations, so
// every table/figure binary measures the same workload; and the one timing
// path and writer behind every BENCH_*.json kernel summary.
//
// Every BENCH file has one schema, read by bench/check_regression.py:
//
//   {"calibration_seconds": s,           // a fixed spin, once per process
//    "kernels": {name: seconds, ...},    // best-of-3, gated vs baseline
//    "info": {name: number|string, ...}} // context the gate ignores

#ifndef RVAR_BENCH_BENCH_COMMON_H_
#define RVAR_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/predictor.h"
#include "sim/datasets.h"

namespace rvar {
namespace bench {

/// The standard bench workload: 150 recurring groups over 20+8+3 simulated
/// days (the paper's 6mo/15d/5d at laptop scale).
sim::SuiteConfig DefaultSuiteConfig();

/// Standard predictor training configuration for a normalization.
core::PredictorConfig DefaultPredictorConfig(core::Normalization norm);

/// Builds the standard suite, printing progress to stdout.
sim::StudySuite BuildSuiteOrDie();

/// Trains the standard predictor on `suite`.
std::unique_ptr<core::VariationPredictor> TrainPredictorOrDie(
    const sim::StudySuite& suite, core::Normalization norm);

/// Prints a section header.
void PrintHeader(const std::string& title);

/// A 1-line ASCII sparkline of a PMF (downsampled to `width` columns).
std::string Sparkline(const std::vector<double>& pmf, int width = 60);

/// Keep-alive sink: the compiler must assume the empty asm reads `value`
/// and all memory, so the work that produced it cannot be deleted.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Wall-clock seconds of one call of `fn`.
double SecondsOf(const std::function<void()>& fn);

/// Best of 3 calls of `fn`: the minimum discards scheduler hiccups, which
/// on a shared runner otherwise dominate single-shot timings.
double BestSecondsOf(const std::function<void()>& fn);

/// Gated kernel timings, in the order they are written.
using BenchKernels = std::vector<std::pair<std::string, double>>;
/// Ungated context values (numbers or strings), in the order written.
using BenchInfo =
    std::vector<std::pair<std::string, std::variant<double, std::string>>>;

/// Writes `path` in the BENCH schema above. Aborts on an unwritable path,
/// a repeated kernel name or a non-finite number.
void WriteBenchJson(const std::string& path, const BenchKernels& kernels,
                    const BenchInfo& info);

/// `<dir>/<name>`, where <dir> is a directory private to this process
/// (mkdtemp under the system temp directory), created on first use and
/// removed with its contents when the process exits. Concurrent bench runs
/// never share a scratch path.
std::string BenchTempPath(const std::string& name);

}  // namespace bench
}  // namespace rvar

#endif  // RVAR_BENCH_BENCH_COMMON_H_
