#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "common/check.h"

namespace rvar {
namespace bench {

sim::SuiteConfig DefaultSuiteConfig() {
  sim::SuiteConfig config;
  config.num_groups = 150;
  config.d1_days = 20.0;
  config.d2_days = 15.0;
  config.d3_days = 5.0;
  config.d1_support = 20;
  config.d2_support = 3;
  config.d3_support = 3;
  config.workload.min_period_seconds = 900.0;
  config.workload.max_period_seconds = 6.0 * 3600.0;
  config.seed = 20230407;  // the paper's arXiv date
  return config;
}

core::PredictorConfig DefaultPredictorConfig(core::Normalization norm) {
  core::PredictorConfig config;
  config.shape.normalization = norm;
  config.shape.num_clusters = 8;
  config.shape.min_support = 20;
  config.shape.kmeans.num_restarts = 16;
  config.gbdt.num_rounds = 50;
  config.gbdt.feature_fraction = 0.7;
  config.gbdt.max_leaves = 31;
  return config;
}

sim::StudySuite BuildSuiteOrDie() {
  const auto start = std::chrono::steady_clock::now();
  auto suite = sim::BuildStudySuite(DefaultSuiteConfig());
  RVAR_CHECK(suite.ok()) << suite.status().ToString();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf(
      "[setup] simulated %zu + %zu + %zu runs (D1/D2/D3) in %.1fs\n",
      suite->d1.telemetry.NumRuns(), suite->d2.telemetry.NumRuns(),
      suite->d3.telemetry.NumRuns(), secs);
  return std::move(*suite);
}

std::unique_ptr<core::VariationPredictor> TrainPredictorOrDie(
    const sim::StudySuite& suite, core::Normalization norm) {
  const auto start = std::chrono::steady_clock::now();
  auto predictor =
      core::VariationPredictor::Train(suite, DefaultPredictorConfig(norm));
  RVAR_CHECK(predictor.ok()) << predictor.status().ToString();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("[setup] trained %s-normalization predictor in %.1fs\n",
              core::NormalizationName(norm), secs);
  return std::move(*predictor);
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

std::string Sparkline(const std::vector<double>& pmf, int width) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  const size_t n = pmf.size();
  const size_t w = std::min<size_t>(static_cast<size_t>(width), n);
  // Aggregate bins into `w` columns, then scale by the max column.
  std::vector<double> cols(w, 0.0);
  for (size_t i = 0; i < n; ++i) {
    cols[i * w / n] += pmf[i];
  }
  double mx = 0.0;
  for (double c : cols) mx = std::max(mx, c);
  std::string out;
  for (double c : cols) {
    const int level =
        mx > 0.0 ? static_cast<int>(7.999 * c / mx) : 0;
    out += kLevels[level];
  }
  return out;
}

double SecondsOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double BestSecondsOf(const std::function<void()>& fn) {
  double best = SecondsOf(fn);
  for (int rep = 0; rep < 2; ++rep) best = std::min(best, SecondsOf(fn));
  return best;
}

namespace {

// Best-of-3 wall clock of a fixed deterministic spin, measured on the first
// call and reused for every file the process writes. check_regression.py
// divides every kernel time by it, so a uniformly slower (or faster)
// machine neither reads as a regression nor masks one.
double CalibrationSeconds() {
  static const double seconds = BestSecondsOf([] {
    uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < 20000000; ++i) {
      h ^= static_cast<uint64_t>(i);
      h *= 1099511628211ULL;
    }
    KeepAlive(h);
  });
  return seconds;
}

// Names and strings are code literals; refuse any that would need JSON
// escaping rather than escape them.
const char* JsonSafe(const std::string& s) {
  RVAR_CHECK(s.find_first_of("\"\\") == std::string::npos) << s;
  return s.c_str();
}

// A fresh directory under the system temp directory, removed with its
// contents on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "rvar_bench_XXXXXX")
            .string();
    RVAR_CHECK(::mkdtemp(pattern.data()) != nullptr) << "mkdtemp " << pattern;
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace

void WriteBenchJson(const std::string& path, const BenchKernels& kernels,
                    const BenchInfo& info) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  RVAR_CHECK(out != nullptr) << "cannot open " << path;
  std::fprintf(out, "{\n  \"calibration_seconds\": %.6f,\n  \"kernels\": {",
               CalibrationSeconds());
  std::set<std::string> seen;
  const char* sep = "\n";
  for (const auto& [name, seconds] : kernels) {
    RVAR_CHECK(seen.insert(name).second) << "kernel " << name << " repeated";
    RVAR_CHECK(std::isfinite(seconds)) << name;
    std::fprintf(out, "%s    \"%s\": %.6f", sep, JsonSafe(name), seconds);
    sep = ",\n";
  }
  std::fprintf(out, "%s},\n  \"info\": {", kernels.empty() ? "" : "\n  ");
  sep = "\n";
  for (const auto& [name, value] : info) {
    std::fprintf(out, "%s    \"%s\": ", sep, JsonSafe(name));
    if (const double* number = std::get_if<double>(&value)) {
      RVAR_CHECK(std::isfinite(*number)) << name;
      std::fprintf(out, "%.10g", *number);
    } else {
      std::fprintf(out, "\"%s\"", JsonSafe(std::get<std::string>(value)));
    }
    sep = ",\n";
  }
  std::fprintf(out, "%s}\n}\n", info.empty() ? "" : "\n  ");
  RVAR_CHECK(std::fclose(out) == 0) << "cannot write " << path;
  std::printf("wrote %s\n", path.c_str());
}

std::string BenchTempPath(const std::string& name) {
  static const ScratchDir dir;  // removed at process exit
  return (dir.path() / name).string();
}

}  // namespace bench
}  // namespace rvar
