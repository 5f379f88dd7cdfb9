// Performance microbenchmarks (google-benchmark) of the library's hot
// kernels: PMF building/smoothing, posterior likelihoods, k-means, GBDT
// training and prediction, TreeSHAP, simulated job execution, and the
// checkpoint/restore path (snapshot save/load, WAL append/replay). The io
// kernels also emit a machine-readable summary to BENCH_io.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string_view>

#include "common/parallel.h"
#include "common/simd.h"
#include "core/assigner.h"
#include "core/model_lifecycle.h"
#include "core/shape_library.h"
#include "io/model_registry.h"
#include "io/recovery.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "io/wal.h"
#include "ml/feature_select.h"
#include "ml/gbdt.h"
#include "ml/kmeans.h"
#include "ml/shap.h"
#include "ml/simd_kernels.h"
#include "sim/scheduler.h"
#include "stats/histogram.h"
#include "stats/kll_sketch.h"

namespace {

using namespace rvar;

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.LogNormal(0.0, 0.8);
  return xs;
}

void BM_HistogramBuild(benchmark::State& state) {
  const auto xs = RandomValues(static_cast<size_t>(state.range(0)), 1);
  const BinGrid grid = *BinGrid::Make(0.0, 10.0, 200);
  for (auto _ : state) {
    Histogram h = Histogram::FromValues(grid, xs);
    benchmark::DoNotOptimize(h.total_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HistogramBuild)->Arg(1000)->Arg(100000);

void BM_SmoothPmf(benchmark::State& state) {
  const auto xs = RandomValues(10000, 2);
  const BinGrid grid = *BinGrid::Make(0.0, 10.0, 200);
  const auto pmf = Histogram::FromValues(grid, xs).Probabilities();
  for (auto _ : state) {
    auto smoothed = SmoothPmf(pmf, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(smoothed.data());
  }
}
BENCHMARK(BM_SmoothPmf)->Arg(2)->Arg(8);

void BM_KMeansPmfs(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::vector<double>> points;
  const BinGrid grid = *BinGrid::Make(0.0, 10.0, 200);
  for (int g = 0; g < state.range(0); ++g) {
    std::vector<double> xs;
    const double mode = rng.Uniform(0.8, 3.0);
    for (int i = 0; i < 50; ++i) xs.push_back(rng.Normal(mode, 0.2));
    points.push_back(
        SmoothPmf(Histogram::FromValues(grid, xs).Probabilities(), 2));
  }
  ml::KMeansConfig config;
  config.k = 8;
  config.num_restarts = 1;
  for (auto _ : state) {
    auto model = ml::KMeans(points, config);
    benchmark::DoNotOptimize(model->inertia);
  }
}
BENCHMARK(BM_KMeansPmfs)->Arg(100)->Arg(400);

ml::Dataset MakeTabular(int rows, int features, int classes, uint64_t seed) {
  Rng rng(seed);
  ml::Dataset d;
  for (int i = 0; i < rows; ++i) {
    std::vector<double> row(static_cast<size_t>(features));
    for (double& v : row) v = rng.Normal(0.0, 1.0);
    const double score = row[0] + 0.5 * row[1];
    d.y.push_back(score > 0.5 ? 2 : (score > -0.5 ? 1 : 0) % classes);
    d.x.push_back(std::move(row));
  }
  return d;
}

void BM_GbdtTrain(benchmark::State& state) {
  const ml::Dataset d =
      MakeTabular(static_cast<int>(state.range(0)), 30, 3, 4);
  for (auto _ : state) {
    ml::GbdtClassifier model({.num_rounds = 10});
    benchmark::DoNotOptimize(model.Fit(d).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GbdtTrain)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_GbdtPredict(benchmark::State& state) {
  const ml::Dataset d = MakeTabular(3000, 30, 3, 5);
  ml::GbdtClassifier model({.num_rounds = 30});
  benchmark::DoNotOptimize(model.Fit(d).ok());
  size_t i = 0;
  for (auto _ : state) {
    auto proba = model.PredictProba(d.x[i++ % d.NumRows()]);
    benchmark::DoNotOptimize(proba.data());
  }
}
BENCHMARK(BM_GbdtPredict);

void BM_TreeShap(benchmark::State& state) {
  const ml::Dataset d = MakeTabular(3000, 30, 3, 6);
  ml::GbdtClassifier model({.num_rounds = 20});
  benchmark::DoNotOptimize(model.Fit(d).ok());
  size_t i = 0;
  for (auto _ : state) {
    auto shap = ml::ShapForGbdt(model, d.x[i++ % d.NumRows()], 30);
    benchmark::DoNotOptimize(shap.ok());
  }
  state.SetLabel("exact TreeSHAP, 3 classes x 20 rounds");
}
BENCHMARK(BM_TreeShap)->Unit(benchmark::kMillisecond);

void BM_PosteriorAssign(benchmark::State& state) {
  // Shape library over synthetic telemetry.
  sim::TelemetryStore store;
  core::GroupMedians medians;
  Rng rng(7);
  for (int g = 0; g < 40; ++g) {
    const double median = rng.Uniform(50.0, 500.0);
    for (int i = 0; i < 40; ++i) {
      sim::JobRun run;
      run.group_id = g;
      run.runtime_seconds =
          median * std::max(0.1, rng.Normal(1.0, 0.1 + 0.05 * (g % 4)));
      store.Add(run);
    }
    medians.Set(g, median);
  }
  core::ShapeLibraryConfig config;
  config.num_clusters = 8;
  config.min_support = 20;
  config.kmeans.num_restarts = 2;
  auto lib = core::ShapeLibrary::Build(store, medians, config);
  core::PosteriorAssigner assigner(&*lib);
  const auto obs = RandomValues(30, 8);
  for (auto _ : state) {
    auto cluster = assigner.Assign(obs);
    benchmark::DoNotOptimize(cluster.ok());
  }
}
BENCHMARK(BM_PosteriorAssign);

void BM_SchedulerExecute(benchmark::State& state) {
  sim::ClusterConfig cc;
  auto cluster = sim::Cluster::Make(sim::SkuCatalog::Default(), cc);
  sim::TokenScheduler scheduler(&*cluster, {});
  Rng rng(9);
  sim::JobGroupSpec group;
  group.group_id = 0;
  group.plan = sim::GeneratePlan({}, &rng);
  group.allocated_tokens = 50;
  sim::JobInstanceSpec inst;
  inst.input_gb = 100.0;
  inst.submit_time = 3600.0;
  Rng exec_rng(10);
  for (auto _ : state) {
    auto run = scheduler.Execute(group, inst, &exec_rng);
    benchmark::DoNotOptimize(run.ok());
  }
}
BENCHMARK(BM_SchedulerExecute);


// --- Quantile-sketch kernels (stats/kll_sketch.h) -------------------------

void BM_SketchUpdate(benchmark::State& state) {
  const auto xs = RandomValues(static_cast<size_t>(state.range(0)), 51);
  const BinGrid grid = *BinGrid::Make(0.0, 10.0, 200);
  for (auto _ : state) {
    KllSketch sketch = *KllSketch::Make(200);
    for (double x : xs) sketch.UpdateClamped(grid, x);
    benchmark::DoNotOptimize(sketch.n());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SketchUpdate)->Arg(100000);

void BM_SketchMerge(benchmark::State& state) {
  // 64 shard-local sketches of 8192 observations each, folded in fixed
  // operand order the way a shard-count-independent aggregate must be.
  std::vector<KllSketch> parts;
  for (int p = 0; p < 64; ++p) {
    KllSketch s = *KllSketch::Make(200);
    for (double x : RandomValues(8192, 100 + static_cast<uint64_t>(p))) {
      s.Update(x);
    }
    parts.push_back(std::move(s));
  }
  for (auto _ : state) {
    KllSketch acc = parts[0];
    for (size_t p = 1; p < parts.size(); ++p) {
      benchmark::DoNotOptimize(acc.Merge(parts[p]).ok());
    }
    benchmark::DoNotOptimize(acc.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(parts.size() - 1));
}
BENCHMARK(BM_SketchMerge);

void BM_SketchReconstruct(benchmark::State& state) {
  KllSketch sketch = *KllSketch::Make(200);
  const BinGrid grid = *BinGrid::Make(0.0, 10.0, 200);
  for (double x : RandomValues(100000, 52)) sketch.UpdateClamped(grid, x);
  std::vector<double> counts;
  for (auto _ : state) {
    sketch.BinCountsInto(grid, &counts);
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_SketchReconstruct);


// --- Checkpoint/restore kernels (io/) ------------------------------------

core::ShapeLibrary MakeServingLibrary() {
  sim::TelemetryStore store;
  core::GroupMedians medians;
  Rng rng(21);
  for (int g = 0; g < 60; ++g) {
    const double median = rng.Uniform(50.0, 500.0);
    for (int i = 0; i < 40; ++i) {
      sim::JobRun run;
      run.group_id = g;
      run.runtime_seconds =
          median * std::max(0.1, rng.Normal(1.0, 0.1 + 0.05 * (g % 4)));
      store.Add(run);
    }
    medians.Set(g, median);
  }
  core::ShapeLibraryConfig config;
  config.num_clusters = 8;
  config.min_support = 20;
  config.kmeans.num_restarts = 2;
  return *core::ShapeLibrary::Build(store, medians, config);
}

std::string BenchTempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("rvar_bench_io_") + name))
      .string();
}

void BM_SnapshotEncodeLibrary(benchmark::State& state) {
  const core::ShapeLibrary library = MakeServingLibrary();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string image = io::EncodeShapeLibrary(library);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SnapshotEncodeLibrary);

void BM_SnapshotDecodeLibrary(benchmark::State& state) {
  const std::string image = io::EncodeShapeLibrary(MakeServingLibrary());
  for (auto _ : state) {
    auto library = io::DecodeShapeLibrary(image);
    benchmark::DoNotOptimize(library.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_SnapshotDecodeLibrary);

void BM_SnapshotSaveFile(benchmark::State& state) {
  const core::ShapeLibrary library = MakeServingLibrary();
  const std::string path = BenchTempPath("snapshot");
  size_t bytes = io::EncodeShapeLibrary(library).size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::SaveShapeLibrary(library, path).ok());
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SnapshotSaveFile);

void BM_SnapshotLoadFile(benchmark::State& state) {
  const std::string path = BenchTempPath("snapshot_load");
  (void)io::SaveShapeLibrary(MakeServingLibrary(), path);
  const auto size = std::filesystem::file_size(path);
  for (auto _ : state) {
    auto library = io::LoadShapeLibrary(path);
    benchmark::DoNotOptimize(library.ok());
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_SnapshotLoadFile);

// WAL append throughput, with and without per-record fsync (the sync cost
// dominates; both matter for sizing checkpoint intervals).
void BM_WalAppend(benchmark::State& state) {
  const bool sync = state.range(0) != 0;
  const std::string path = BenchTempPath("wal_append");
  std::filesystem::remove(path);
  auto writer = io::WalWriter::Create(path, 1, sync);
  const std::string record(24, 'r');  // observation-record sized
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer->Append(record).ok());
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->ArgNames({"fsync"});

void BM_WalReplay(benchmark::State& state) {
  const int num_records = static_cast<int>(state.range(0));
  const std::string path = BenchTempPath("wal_replay");
  std::filesystem::remove(path);
  {
    auto writer =
        io::WalWriter::Create(path, 1, /*sync_each_append=*/false);
    const std::string record(24, 'r');
    for (int i = 0; i < num_records; ++i) (void)writer->Append(record);
  }
  for (auto _ : state) {
    auto scan = io::ScanWalFile(path);
    benchmark::DoNotOptimize(scan.ok());
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * num_records);
}
BENCHMARK(BM_WalReplay)->Arg(10000)->Arg(100000);

// Direct timed run of the io kernels; written to BENCH_io.json so the
// throughput numbers land next to the figure/table outputs.
double SecondsOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void WriteBenchIoJson() {
  const core::ShapeLibrary library = MakeServingLibrary();
  const std::string image = io::EncodeShapeLibrary(library);
  const std::string snap_path = BenchTempPath("json_snapshot");
  const std::string wal_path = BenchTempPath("json_wal");

  constexpr int kSaveReps = 50;
  const double save_s = SecondsOf([&] {
    for (int i = 0; i < kSaveReps; ++i) {
      (void)io::SaveShapeLibrary(library, snap_path);
    }
  });
  const double load_s = SecondsOf([&] {
    for (int i = 0; i < kSaveReps; ++i) {
      (void)io::LoadShapeLibrary(snap_path);
    }
  });

  constexpr int kWalRecords = 200000;
  std::filesystem::remove(wal_path);
  const std::string record(24, 'r');
  double append_s = 0.0;
  {
    auto writer =
        io::WalWriter::Create(wal_path, 1, /*sync_each_append=*/false);
    append_s = SecondsOf([&] {
      for (int i = 0; i < kWalRecords; ++i) (void)writer->Append(record);
    });
  }
  const double replay_s =
      SecondsOf([&] { (void)io::ScanWalFile(wal_path); });

  const double mb = static_cast<double>(image.size()) / 1e6;
  std::FILE* out = std::fopen("BENCH_io.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"snapshot_bytes\": %zu,\n"
                 "  \"snapshot_save_mb_per_s\": %.2f,\n"
                 "  \"snapshot_load_mb_per_s\": %.2f,\n"
                 "  \"wal_append_records_per_s\": %.0f,\n"
                 "  \"wal_replay_records_per_s\": %.0f\n"
                 "}\n",
                 image.size(), kSaveReps * mb / save_s,
                 kSaveReps * mb / load_s, kWalRecords / append_s,
                 kWalRecords / replay_s);
    std::fclose(out);
    std::printf("io throughput summary written to BENCH_io.json\n");
  }
  std::filesystem::remove(snap_path);
  std::filesystem::remove(wal_path);
}

// Thread-scaling sweep over the parallelized kernels (GBDT training and
// shape-library builds), written to BENCH_parallel.json. The results are
// bit-identical across thread counts by construction (common/parallel.h),
// so the sweep measures pure wall-clock scaling; on a single-core host
// every point degenerates to ~1x, which is why the detected hardware
// concurrency is recorded alongside.
void WriteBenchParallelJson() {
  const int threads[] = {1, 2, 4, 8};
  const ml::Dataset gbdt_data = MakeTabular(4000, 30, 3, 11);

  double gbdt_s[4] = {0.0};
  double library_s[4] = {0.0};
  for (int t = 0; t < 4; ++t) {
    SetParallelThreads(threads[t]);
    gbdt_s[t] = SecondsOf([&] {
      ml::GbdtClassifier model({.num_rounds = 10});
      benchmark::DoNotOptimize(model.Fit(gbdt_data).ok());
    });
    library_s[t] = SecondsOf([&] {
      core::ShapeLibrary library = MakeServingLibrary();
      benchmark::DoNotOptimize(library.num_clusters());
    });
  }
  SetParallelThreads(0);

  std::FILE* out = std::fopen("BENCH_parallel.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"gbdt_train_seconds\": "
                 "{\"1\": %.4f, \"2\": %.4f, \"4\": %.4f, \"8\": %.4f},\n"
                 "  \"shape_library_build_seconds\": "
                 "{\"1\": %.4f, \"2\": %.4f, \"4\": %.4f, \"8\": %.4f},\n"
                 "  \"gbdt_speedup_at_4_threads\": %.2f,\n"
                 "  \"shape_library_speedup_at_4_threads\": %.2f\n"
                 "}\n",
                 std::thread::hardware_concurrency(), gbdt_s[0], gbdt_s[1],
                 gbdt_s[2], gbdt_s[3], library_s[0], library_s[1],
                 library_s[2], library_s[3], gbdt_s[0] / gbdt_s[2],
                 library_s[0] / library_s[2]);
    std::fclose(out);
    std::printf("thread-scaling summary written to BENCH_parallel.json\n");
  }
}

// --- Kernel summary for the CI bench-regression gate ----------------------

// Best-of-3 wall clock: the minimum discards scheduler hiccups, which on a
// shared CI runner otherwise dominate single-shot timings.
double BestSecondsOf(const std::function<void()>& fn) {
  double best = SecondsOf(fn);
  for (int rep = 0; rep < 2; ++rep) best = std::min(best, SecondsOf(fn));
  return best;
}

// Fixed deterministic spin work whose wall clock calibrates the host's
// scalar speed. bench/check_regression.py divides every kernel time by
// this, so a uniformly slower (or faster) CI machine does not read as a
// regression (or mask one).
double CalibrationSeconds() {
  return BestSecondsOf([] {
    uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < 20000000; ++i) {
      h ^= static_cast<uint64_t>(i);
      h *= 1099511628211ULL;
    }
    benchmark::DoNotOptimize(h);
  });
}

// Direct timed runs of the CPU-bound kernels, written to
// BENCH_kernels.json for the CI regression gate. The filesystem-bound
// kernels stay out of the gated set (their CI variance is tens of
// percent); they still land in BENCH_io.json for eyeballing.
void WriteBenchKernelsJson() {
  // Fixtures are built outside the timed regions.
  const auto values = RandomValues(100000, 31);
  const BinGrid grid = *BinGrid::Make(0.0, 10.0, 200);
  const auto pmf =
      Histogram::FromValues(grid, RandomValues(10000, 32)).Probabilities();

  Rng kmeans_rng(33);
  std::vector<std::vector<double>> kmeans_points;
  for (int g = 0; g < 100; ++g) {
    std::vector<double> xs;
    const double mode = kmeans_rng.Uniform(0.8, 3.0);
    for (int i = 0; i < 50; ++i) xs.push_back(kmeans_rng.Normal(mode, 0.2));
    kmeans_points.push_back(
        SmoothPmf(Histogram::FromValues(grid, xs).Probabilities(), 2));
  }

  const ml::Dataset train_data = MakeTabular(2000, 30, 3, 34);
  const ml::Dataset predict_data = MakeTabular(3000, 30, 3, 35);
  ml::GbdtClassifier predict_model({.num_rounds = 30});
  benchmark::DoNotOptimize(predict_model.Fit(predict_data).ok());

  // The per-feature prep ahead of every GBDT fit, at the shape of the
  // benchmark's feature-selection probe (14,878 D2 rows x 47 features).
  const ml::Dataset prep_data = MakeTabular(14878, 47, 3, 39);
  std::vector<double> prep_importance(prep_data.NumFeatures());
  for (size_t f = 0; f < prep_importance.size(); ++f) {
    prep_importance[f] = static_cast<double>((f * 17) % 47);
  }

  const core::ShapeLibrary library = MakeServingLibrary();
  core::PosteriorAssigner assigner(&library);
  const auto assign_obs = RandomValues(30, 36);
  const std::string image = io::EncodeShapeLibrary(library);

  sim::ClusterConfig cluster_config;
  auto cluster =
      sim::Cluster::Make(sim::SkuCatalog::Default(), cluster_config);
  sim::TokenScheduler scheduler(&*cluster, {});
  Rng plan_rng(37);
  sim::JobGroupSpec group;
  group.group_id = 0;
  group.plan = sim::GeneratePlan({}, &plan_rng);
  group.allocated_tokens = 50;
  sim::JobInstanceSpec instance;
  instance.input_gb = 100.0;
  instance.submit_time = 3600.0;

  struct Kernel {
    const char* name;
    std::function<void()> fn;
  };
  const std::vector<Kernel> kernels = {
      {"histogram_build",
       [&] {
         for (int r = 0; r < 200; ++r) {
           Histogram h = Histogram::FromValues(grid, values);
           benchmark::DoNotOptimize(h.total_count());
         }
       }},
      {"smooth_pmf",
       [&] {
         for (int r = 0; r < 20000; ++r) {
           auto smoothed = SmoothPmf(pmf, 8);
           benchmark::DoNotOptimize(smoothed.data());
         }
       }},
      {"kmeans_pmfs",
       [&] {
         ml::KMeansConfig config;
         config.k = 8;
         config.num_restarts = 1;
         for (int r = 0; r < 30; ++r) {
           auto model = ml::KMeans(kmeans_points, config);
           benchmark::DoNotOptimize(model->inertia);
         }
       }},
      {"gbdt_train",
       [&] {
         ml::GbdtClassifier model({.num_rounds = 10});
         benchmark::DoNotOptimize(model.Fit(train_data).ok());
       }},
      {"gbdt_predict",
       [&] {
         for (size_t i = 0; i < 20000; ++i) {
           auto proba = predict_model.PredictProba(
               predict_data.x[i % predict_data.NumRows()]);
           benchmark::DoNotOptimize(proba.data());
         }
       }},
      {"treeshap",
       [&] {
         for (size_t i = 0; i < 200; ++i) {
           auto shap = ml::ShapForGbdt(
               predict_model, predict_data.x[i % predict_data.NumRows()],
               30);
           benchmark::DoNotOptimize(shap.ok());
         }
       }},
      {"posterior_assign",
       [&] {
         for (int r = 0; r < 20000; ++r) {
           auto cluster_id = assigner.Assign(assign_obs);
           benchmark::DoNotOptimize(cluster_id.ok());
         }
       }},
      {"scheduler_execute",
       [&] {
         Rng exec_rng(38);
         for (int r = 0; r < 2000; ++r) {
           auto run = scheduler.Execute(group, instance, &exec_rng);
           benchmark::DoNotOptimize(run.ok());
         }
       }},
      {"snapshot_encode",
       [&] {
         for (int r = 0; r < 500; ++r) {
           std::string encoded = io::EncodeShapeLibrary(library);
           benchmark::DoNotOptimize(encoded.data());
         }
       }},
      {"snapshot_decode",
       [&] {
         for (int r = 0; r < 500; ++r) {
           auto decoded = io::DecodeShapeLibrary(image);
           benchmark::DoNotOptimize(decoded.ok());
         }
       }},
      {"train_prepare",
       [&] {
         auto binner = ml::FeatureBinner::Fit(prep_data, 255);
         auto cols = binner->BinColumns(prep_data);
         benchmark::DoNotOptimize(cols.data());
         auto selection = ml::SelectUncorrelatedFeatures(
             prep_data, prep_importance, 0.98);
         benchmark::DoNotOptimize(selection.ok());
       }},
  };

  const double calibration = CalibrationSeconds();
  std::FILE* out = std::fopen("BENCH_kernels.json", "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\n"
               "  \"calibration_seconds\": %.6f,\n"
               "  \"kernels\": {\n",
               calibration);
  for (size_t i = 0; i < kernels.size(); ++i) {
    const double seconds = BestSecondsOf(kernels[i].fn);
    std::fprintf(out, "    \"%s\": %.6f%s\n", kernels[i].name, seconds,
                 i + 1 == kernels.size() ? "" : ",");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("kernel timing summary written to BENCH_kernels.json\n");
}

// Resident-set size of this process right now, from /proc/self/status.
// Returns 0 where that interface does not exist; the sweep then reports
// only the accounted (capacity-derived) bytes.
size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

size_t EnvSizeOr(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || parsed == 0) return fallback;
  return static_cast<size_t>(parsed);
}

// Quantile-sketch summary (DESIGN.md §15), written to BENCH_sketch.json.
// Three CPU-bound kernels (update, fixed-order shard merge, 200-bin PMF
// reconstruction) land in the gated `kernels` map; alongside them the
// file records the steady-state sketch footprint per group at growing
// support, and a large-cardinality dense-vs-sketch sweep: the per-group
// state the sketch replaced — a dense 200-bin double PMF plus the raw
// sample buffer a dense design needs to merge shards and answer
// quantiles — materialized for every synthetic group next to the sketch
// fleet, with both accounted bytes and measured RSS deltas. The group
// count (default 1M) and per-group support are overridable via
// RVAR_SKETCH_SWEEP_GROUPS / RVAR_SKETCH_SWEEP_OBS so memory-constrained
// CI runners can run a proportionally smaller sweep; the per-group ratio
// is independent of the group count.
void WriteBenchSketchJson() {
  constexpr int kSketchK = 200;
  const BinGrid grid = *BinGrid::Make(0.0, 10.0, 200);

  // Steady-state footprint per group as support grows (the README table).
  const int64_t support[] = {100, 1000, 10000, 100000};
  size_t footprint[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    KllSketch sketch = *KllSketch::Make(kSketchK);
    for (double x :
         RandomValues(static_cast<size_t>(support[i]), 61)) {
      sketch.UpdateClamped(grid, x);
    }
    footprint[i] = sketch.MemoryBytes();
  }

  // Gated kernels. Fixtures outside the timed regions.
  const auto update_values = RandomValues(2000000, 62);
  const double update_s = BestSecondsOf([&] {
    KllSketch sketch = *KllSketch::Make(kSketchK);
    for (double x : update_values) sketch.UpdateClamped(grid, x);
    benchmark::DoNotOptimize(sketch.n());
  });

  std::vector<KllSketch> parts;
  for (int p = 0; p < 64; ++p) {
    KllSketch s = *KllSketch::Make(kSketchK);
    for (double x : RandomValues(8192, 200 + static_cast<uint64_t>(p))) {
      s.Update(x);
    }
    parts.push_back(std::move(s));
  }
  constexpr int kMergeReps = 200;
  const double merge_s = BestSecondsOf([&] {
    for (int rep = 0; rep < kMergeReps; ++rep) {
      KllSketch acc = parts[0];
      for (size_t p = 1; p < parts.size(); ++p) {
        benchmark::DoNotOptimize(acc.Merge(parts[p]).ok());
      }
      benchmark::DoNotOptimize(acc.n());
    }
  });
  const double merges_per_rep = static_cast<double>(parts.size() - 1);

  KllSketch reconstruct_sketch = *KllSketch::Make(kSketchK);
  for (double x : RandomValues(100000, 63)) {
    reconstruct_sketch.UpdateClamped(grid, x);
  }
  constexpr int kReconstructReps = 20000;
  std::vector<double> counts;
  const double reconstruct_s = BestSecondsOf([&] {
    for (int rep = 0; rep < kReconstructReps; ++rep) {
      reconstruct_sketch.BinCountsInto(grid, &counts);
      benchmark::DoNotOptimize(counts.data());
    }
  });

  // Dense-vs-sketch sweep. One prototype per representation, built from
  // the same stream, then copied per group: copies have the same
  // footprint, and building a million independent streams would time the
  // RNG, not the memory. The sketch fleet is built first and kept live
  // while the dense fleet allocates, so each RSS delta measures fresh
  // pages rather than arena reuse.
  struct DenseGroupState {
    std::vector<double> pmf;      // dense 200-bin PMF
    std::vector<double> samples;  // raw buffer for merges/quantiles
  };
  const size_t groups = EnvSizeOr("RVAR_SKETCH_SWEEP_GROUPS", 1000000);
  const size_t obs_per_group = EnvSizeOr("RVAR_SKETCH_SWEEP_OBS", 4096);

  const auto stream = RandomValues(obs_per_group, 64);
  KllSketch sketch_proto = *KllSketch::Make(kSketchK);
  for (double x : stream) sketch_proto.UpdateClamped(grid, x);
  DenseGroupState dense_proto;
  dense_proto.pmf = Histogram::FromValues(grid, stream).Probabilities();
  dense_proto.samples = stream;

  const size_t sketch_accounted = sketch_proto.MemoryBytes();
  const size_t dense_accounted =
      sizeof(DenseGroupState) + dense_proto.pmf.capacity() * sizeof(double) +
      dense_proto.samples.capacity() * sizeof(double);

  const size_t rss_start = CurrentRssBytes();
  std::vector<KllSketch> sketch_fleet;
  sketch_fleet.reserve(groups);
  for (size_t g = 0; g < groups; ++g) sketch_fleet.push_back(sketch_proto);
  const size_t rss_after_sketch = CurrentRssBytes();
  std::vector<DenseGroupState> dense_fleet;
  dense_fleet.reserve(groups);
  for (size_t g = 0; g < groups; ++g) dense_fleet.push_back(dense_proto);
  const size_t rss_after_dense = CurrentRssBytes();
  benchmark::DoNotOptimize(sketch_fleet.data());
  benchmark::DoNotOptimize(dense_fleet.data());

  const double sketch_rss =
      static_cast<double>(rss_after_sketch - rss_start);
  const double dense_rss =
      static_cast<double>(rss_after_dense - rss_after_sketch);
  const double accounted_ratio = static_cast<double>(dense_accounted) /
                                 static_cast<double>(sketch_accounted);
  const double rss_ratio = sketch_rss > 0 ? dense_rss / sketch_rss : 0.0;
  dense_fleet.clear();
  dense_fleet.shrink_to_fit();
  sketch_fleet.clear();
  sketch_fleet.shrink_to_fit();

  const double calibration = CalibrationSeconds();
  std::FILE* out = std::fopen("BENCH_sketch.json", "w");
  if (out == nullptr) return;
  std::fprintf(
      out,
      "{\n"
      "  \"calibration_seconds\": %.6f,\n"
      "  \"kernels\": {\n"
      "    \"sketch_update\": %.6f,\n"
      "    \"sketch_merge\": %.6f,\n"
      "    \"sketch_reconstruct\": %.6f\n"
      "  },\n"
      "  \"sketch_k\": %d,\n"
      "  \"update_m_items_per_s\": %.2f,\n"
      "  \"merge_sketches_per_s\": %.0f,\n"
      "  \"reconstruct_us\": %.2f,\n"
      "  \"memory_bytes_per_group\": "
      "{\"100\": %zu, \"1000\": %zu, \"10000\": %zu, \"100000\": %zu},\n"
      "  \"sweep\": {\n"
      "    \"groups\": %zu,\n"
      "    \"obs_per_group\": %zu,\n"
      "    \"dense_bytes_per_group\": %zu,\n"
      "    \"sketch_bytes_per_group\": %zu,\n"
      "    \"dense_rss_bytes\": %.0f,\n"
      "    \"sketch_rss_bytes\": %.0f,\n"
      "    \"accounted_reduction_ratio\": %.1f,\n"
      "    \"rss_reduction_ratio\": %.1f\n"
      "  }\n"
      "}\n",
      calibration, update_s, merge_s, reconstruct_s, kSketchK,
      static_cast<double>(update_values.size()) / update_s / 1e6,
      kMergeReps * merges_per_rep / merge_s,
      reconstruct_s / kReconstructReps * 1e6, footprint[0], footprint[1],
      footprint[2], footprint[3], groups, obs_per_group, dense_accounted,
      sketch_accounted, dense_rss, sketch_rss, accounted_ratio, rss_ratio);
  std::fclose(out);
  std::printf(
      "sketch summary written to BENCH_sketch.json "
      "(%zu groups x %zu obs: dense %zu B/group vs sketch %zu B/group, "
      "%.1fx accounted, %.1fx RSS)\n",
      groups, obs_per_group, dense_accounted, sketch_accounted,
      accounted_ratio, rss_ratio);
}

// GBDT engine kernels (histogram-cache training and leaf-bitvector
// inference), written to BENCH_gbdt.json for the CI regression gate.
// Training is timed at 1 and 4 configured threads over the same workload
// as the BENCH_parallel.json sweep, so the two reports stay comparable;
// the batch-predict kernel reuses one scratch buffer across all rows the
// way the serving paths (PredictShapeBatch, what-if) do. The SIMD-sensitive
// kernels (histogram accumulate, single-thread training) are additionally
// timed with the dispatch pinned to the scalar row: the *_scalar entries
// keep the reference path gated against regression, and the simd/scalar
// pair makes the vectorization win visible in the CI table (baseline.json
// pins the SIMD-sensitive baselines to scalar timings, so the SIMD build
// reads as an improvement, never a regression, on any runner generation).
// Inference has no SIMD row, so gbdt_predict_row_1t has no scalar twin.
void WriteBenchGbdtJson() {
  const ml::Dataset train_data = MakeTabular(4000, 30, 3, 11);
  const ml::Dataset predict_data = MakeTabular(3000, 30, 3, 35);
  ml::GbdtClassifier predict_model({.num_rounds = 30});
  benchmark::DoNotOptimize(predict_model.Fit(predict_data).ok());
  const SimdLevel active_level = ActiveSimdLevel();

  // Histogram accumulate, straight off the dispatch table: dense-node
  // regime (node rows >> bins), the exact call BuildHistogram makes. The
  // node is sized like a real training node (a few thousand rows) so the
  // gh pairs and the lane scratch stay cache-resident — a node streamed
  // from DRAM would time the memory bus, not the kernel.
  constexpr size_t kHistRows = 4096;
  constexpr size_t kHistBins = 64;
  Rng hist_rng(39);
  std::vector<size_t> hist_idx(kHistRows);
  std::iota(hist_idx.begin(), hist_idx.end(), size_t{0});
  std::vector<uint8_t> hist_col(kHistRows);
  for (uint8_t& b : hist_col) {
    b = static_cast<uint8_t>(
        hist_rng.UniformInt(0, static_cast<int64_t>(kHistBins) - 1));
  }
  std::vector<double> hist_gh(2 * kHistRows);
  for (double& v : hist_gh) v = hist_rng.Normal(0.0, 1.0);
  std::vector<double> hist_region(ml::kHistCellStride * kHistBins);
  std::vector<double> hist_scratch(ml::HistScratchDoubles(kHistBins));
  const auto time_hist = [&](const ml::SimdKernels& kern) {
    return BestSecondsOf([&] {
      for (int r = 0; r < 2000; ++r) {
        kern.hist_accumulate(hist_idx.data(), kHistRows, hist_col.data(),
                             hist_gh.data(), kHistBins, hist_region.data(),
                             hist_scratch.data());
        benchmark::DoNotOptimize(hist_region.data());
      }
    });
  };
  const double hist_simd = time_hist(ml::ActiveSimdKernels());
  const double hist_scalar =
      time_hist(ml::kSimdKernels[static_cast<int>(SimdLevel::kScalar)]);

  SetParallelThreads(1);
  const double train_1t = BestSecondsOf([&] {
    ml::GbdtClassifier model({.num_rounds = 10});
    benchmark::DoNotOptimize(model.Fit(train_data).ok());
  });
  const double forest_1t = BestSecondsOf([&] {
    std::vector<double> proba;
    for (int r = 0; r < 8; ++r) {
      predict_model.PredictProbaBatchInto(predict_data.x, &proba);
      benchmark::DoNotOptimize(proba.data());
    }
  });
  SetSimdLevel(SimdLevel::kScalar);
  const double train_1t_scalar = BestSecondsOf([&] {
    ml::GbdtClassifier model({.num_rounds = 10});
    benchmark::DoNotOptimize(model.Fit(train_data).ok());
  });
  SetSimdLevel(active_level);
  SetParallelThreads(4);
  const double train_4t = BestSecondsOf([&] {
    ml::GbdtClassifier model({.num_rounds = 10});
    benchmark::DoNotOptimize(model.Fit(train_data).ok());
  });
  SetParallelThreads(0);

  const double predict_batch = BestSecondsOf([&] {
    std::vector<double> proba;
    for (size_t i = 0; i < 20000; ++i) {
      predict_model.PredictProbaInto(
          predict_data.x[i % predict_data.NumRows()], &proba);
      benchmark::DoNotOptimize(proba.data());
    }
  });

  const double calibration = CalibrationSeconds();
  std::FILE* out = std::fopen("BENCH_gbdt.json", "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\n"
               "  \"calibration_seconds\": %.6f,\n"
               "  \"simd_level\": \"%s\",\n"
               "  \"kernels\": {\n"
               "    \"gbdt_train_1t\": %.6f,\n"
               "    \"gbdt_train_1t_scalar\": %.6f,\n"
               "    \"gbdt_train_4t\": %.6f,\n"
               "    \"gbdt_predict_batch\": %.6f,\n"
               "    \"gbdt_hist_accumulate\": %.6f,\n"
               "    \"gbdt_hist_accumulate_scalar\": %.6f,\n"
               "    \"gbdt_predict_row_1t\": %.6f\n"
               "  }\n}\n",
               calibration, SimdLevelName(active_level), train_1t,
               train_1t_scalar, train_4t, predict_batch, hist_simd,
               hist_scalar, forest_1t);
  std::fclose(out);
  std::printf("gbdt engine summary written to BENCH_gbdt.json\n");
}

// Online model lifecycle timings (cold + warm retrain wall-time, the
// gate-and-swap phase, rollback), written to BENCH_lifecycle.json and
// uploaded by the CI bench job next to the other summaries. These are
// informational (filesystem-bound, not regression-gated): the number that
// matters operationally is the swap/rollback latency the serving path
// observes, not the training time.
void WriteBenchLifecycleJson() {
  const std::string dir = BenchTempPath("lifecycle_registry");
  std::filesystem::remove_all(dir);
  core::ModelLifecycleOptions options;
  options.dir = dir;
  options.gbdt.num_rounds = 10;
  options.seed = 17;
  auto lifecycle = core::ModelLifecycle::Open(options);
  if (!lifecycle.ok()) return;

  const ml::Dataset window_a = MakeTabular(2000, 20, 3, 41);
  const ml::Dataset window_b = MakeTabular(2000, 20, 3, 42);

  // Cold cycle (no parent), then a warm cycle (warm-started from v1).
  const double cold_s = SecondsOf([&] {
    benchmark::DoNotOptimize(
        (*lifecycle)->RetrainAndSwap(window_a, 0, 2000).ok());
  });
  const double warm_s = SecondsOf([&] {
    benchmark::DoNotOptimize(
        (*lifecycle)->RetrainAndSwap(window_b, 2000, 4000).ok());
  });

  // Gate + swap alone: train phase 1 outside the timer.
  auto version = (*lifecycle)->TrainCandidate(window_a, 4000, 6000);
  double swap_s = 0.0;
  if (version.ok()) {
    swap_s = SecondsOf([&] {
      benchmark::DoNotOptimize(
          (*lifecycle)->ValidateAndSwap(*version, window_a).ok());
    });
  }

  // Rollback latency: alternate between the two newest retained versions.
  const std::vector<int64_t> versions = (*lifecycle)->registry().Versions();
  double rollback_s = 0.0;
  if (versions.size() >= 2) {
    constexpr int kReps = 10;
    const int64_t live = (*lifecycle)->live_version();
    int64_t other = -1;
    for (int64_t v : versions) {
      auto manifest = (*lifecycle)->registry().Manifest(v);
      if (manifest.ok() && manifest->state == io::ModelState::kRetired) {
        other = v;
      }
    }
    if (other >= 0) {
      rollback_s = SecondsOf([&] {
                     for (int i = 0; i < kReps; ++i) {
                       benchmark::DoNotOptimize(
                           (*lifecycle)
                               ->Rollback(i % 2 == 0 ? other : live)
                               .ok());
                     }
                   }) /
                   kReps;
    }
  }

  std::FILE* out = std::fopen("BENCH_lifecycle.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"retrain_cold_seconds\": %.6f,\n"
                 "  \"retrain_warm_seconds\": %.6f,\n"
                 "  \"validate_and_swap_seconds\": %.6f,\n"
                 "  \"rollback_seconds\": %.6f,\n"
                 "  \"window_rows\": %zu\n"
                 "}\n",
                 cold_s, warm_s, swap_s, rollback_s, window_a.NumRows());
    std::fclose(out);
    std::printf("lifecycle summary written to BENCH_lifecycle.json\n");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  // --summaries_only: skip the google-benchmark sweep and emit only the
  // BENCH_*.json summaries (what the CI thread-scaling and regression
  // steps consume). Stripped before benchmark::Initialize sees it.
  bool summaries_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--summaries_only") {
      summaries_only = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!summaries_only) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteBenchIoJson();
  WriteBenchParallelJson();
  WriteBenchKernelsJson();
  WriteBenchGbdtJson();
  WriteBenchSketchJson();
  WriteBenchLifecycleJson();
  return 0;
}
