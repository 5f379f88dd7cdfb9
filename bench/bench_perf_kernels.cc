// Direct-timed kernel summaries, each written to a BENCH_*.json file
// through bench_common's one writer and schema (bench_common.h):
//   BENCH_kernels.json, BENCH_gbdt.json, BENCH_sketch.json — CPU-bound
//       kernels gated by bench/check_regression.py;
//   BENCH_io.json — snapshot save/load and WAL append/replay throughput;
//   BENCH_parallel.json — 1/2/4/8-thread scaling of GBDT training and
//       shape-library builds;
//   BENCH_lifecycle.json — retrain, gate-and-swap and rollback latency.
// Run it from a scratch directory: the files land in the working
// directory.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <thread>

#include "bench_common.h"
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
using bench::BenchTempPath;
using bench::BestSecondsOf;
using bench::KeepAlive;
using bench::SecondsOf;
using bench::WriteBenchJson;

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.LogNormal(0.0, 0.8);
  return xs;
}

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

// Snapshot and WAL throughput, written to BENCH_io.json. Filesystem-bound
// (CI variance of tens of percent), so every number is ungated info.
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
  WriteBenchJson("BENCH_io.json", {},
                 {{"snapshot_bytes", static_cast<double>(image.size())},
                  {"snapshot_save_mb_per_s", kSaveReps * mb / save_s},
                  {"snapshot_load_mb_per_s", kSaveReps * mb / load_s},
                  {"wal_append_records_per_s", kWalRecords / append_s},
                  {"wal_replay_records_per_s", kWalRecords / replay_s}});
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
      KeepAlive(model.Fit(gbdt_data).ok());
    });
    library_s[t] = SecondsOf([&] {
      core::ShapeLibrary library = MakeServingLibrary();
      KeepAlive(library.num_clusters());
    });
  }
  SetParallelThreads(0);

  bench::BenchInfo info = {
      {"hardware_concurrency",
       static_cast<double>(std::thread::hardware_concurrency())}};
  for (int t = 0; t < 4; ++t) {
    const std::string suffix = "_seconds_" + std::to_string(threads[t]) + "t";
    info.push_back({"gbdt_train" + suffix, gbdt_s[t]});
    info.push_back({"shape_library_build" + suffix, library_s[t]});
  }
  info.push_back({"gbdt_speedup_at_4_threads", gbdt_s[0] / gbdt_s[2]});
  info.push_back(
      {"shape_library_speedup_at_4_threads", library_s[0] / library_s[2]});
  WriteBenchJson("BENCH_parallel.json", {}, info);
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
  KeepAlive(predict_model.Fit(predict_data).ok());

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

  const std::vector<std::pair<const char*, std::function<void()>>> kernels = {
      {"histogram_build",
       [&] {
         for (int r = 0; r < 200; ++r) {
           Histogram h = Histogram::FromValues(grid, values);
           KeepAlive(h.total_count());
         }
       }},
      {"smooth_pmf",
       [&] {
         for (int r = 0; r < 20000; ++r) {
           auto smoothed = SmoothPmf(pmf, 8);
           KeepAlive(smoothed.data());
         }
       }},
      {"kmeans_pmfs",
       [&] {
         ml::KMeansConfig config;
         config.k = 8;
         config.num_restarts = 1;
         for (int r = 0; r < 30; ++r) {
           auto model = ml::KMeans(kmeans_points, config);
           KeepAlive(model->inertia);
         }
       }},
      {"gbdt_train",
       [&] {
         ml::GbdtClassifier model({.num_rounds = 10});
         KeepAlive(model.Fit(train_data).ok());
       }},
      {"gbdt_predict",
       [&] {
         for (size_t i = 0; i < 20000; ++i) {
           auto proba = predict_model.PredictProba(
               predict_data.x[i % predict_data.NumRows()]);
           KeepAlive(proba.data());
         }
       }},
      {"treeshap",
       [&] {
         for (size_t i = 0; i < 200; ++i) {
           auto shap = ml::ShapForGbdt(
               predict_model, predict_data.x[i % predict_data.NumRows()],
               30);
           KeepAlive(shap.ok());
         }
       }},
      {"posterior_assign",
       [&] {
         for (int r = 0; r < 20000; ++r) {
           auto cluster_id = assigner.Assign(assign_obs);
           KeepAlive(cluster_id.ok());
         }
       }},
      {"scheduler_execute",
       [&] {
         Rng exec_rng(38);
         for (int r = 0; r < 2000; ++r) {
           auto run = scheduler.Execute(group, instance, &exec_rng);
           KeepAlive(run.ok());
         }
       }},
      {"snapshot_encode",
       [&] {
         for (int r = 0; r < 500; ++r) {
           std::string encoded = io::EncodeShapeLibrary(library);
           KeepAlive(encoded.data());
         }
       }},
      {"snapshot_decode",
       [&] {
         for (int r = 0; r < 500; ++r) {
           auto decoded = io::DecodeShapeLibrary(image);
           KeepAlive(decoded.ok());
         }
       }},
      {"train_prepare",
       [&] {
         auto binner = ml::FeatureBinner::Fit(prep_data, 255);
         auto cols = binner->BinColumns(prep_data);
         KeepAlive(cols.data());
         auto selection = ml::SelectUncorrelatedFeatures(
             prep_data, prep_importance, 0.98);
         KeepAlive(selection.ok());
       }},
  };

  bench::BenchKernels seconds;
  for (const auto& [name, fn] : kernels) {
    seconds.push_back({name, BestSecondsOf(fn)});
  }
  WriteBenchJson("BENCH_kernels.json", seconds, {});
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

// Quantile-sketch summary (DESIGN.md §15), written to BENCH_sketch.json.
// Three CPU-bound kernels (update, fixed-order shard merge, 200-bin PMF
// reconstruction) land in the gated `kernels` map; alongside them the
// file records the steady-state sketch footprint per group at growing
// support, and a large-cardinality dense-vs-sketch sweep: the per-group
// state the sketch replaced — a dense 200-bin double PMF plus the raw
// sample buffer a dense design needs to merge shards and answer
// quantiles — materialized for every synthetic group next to the sketch
// fleet, with both accounted bytes and measured RSS deltas. The sweep is
// 50,000 groups x 4,096 observations (~1.8 GB dense), small enough for a
// hosted runner; the per-group ratio does not depend on the group count.
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
    KeepAlive(sketch.n());
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
        KeepAlive(acc.Merge(parts[p]).ok());
      }
      KeepAlive(acc.n());
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
      KeepAlive(counts.data());
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
  constexpr size_t groups = 50000;
  constexpr size_t obs_per_group = 4096;

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
  KeepAlive(sketch_fleet.data());
  KeepAlive(dense_fleet.data());

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

  WriteBenchJson(
      "BENCH_sketch.json",
      {{"sketch_update", update_s},
       {"sketch_merge", merge_s},
       {"sketch_reconstruct", reconstruct_s}},
      {{"sketch_k", static_cast<double>(kSketchK)},
       {"update_m_items_per_s",
        static_cast<double>(update_values.size()) / update_s / 1e6},
       {"merge_sketches_per_s", kMergeReps * merges_per_rep / merge_s},
       {"reconstruct_us", reconstruct_s / kReconstructReps * 1e6},
       {"memory_bytes_per_group_100", static_cast<double>(footprint[0])},
       {"memory_bytes_per_group_1000", static_cast<double>(footprint[1])},
       {"memory_bytes_per_group_10000", static_cast<double>(footprint[2])},
       {"memory_bytes_per_group_100000", static_cast<double>(footprint[3])},
       {"sweep_groups", static_cast<double>(groups)},
       {"sweep_obs_per_group", static_cast<double>(obs_per_group)},
       {"sweep_dense_bytes_per_group", static_cast<double>(dense_accounted)},
       {"sweep_sketch_bytes_per_group",
        static_cast<double>(sketch_accounted)},
       {"sweep_dense_rss_bytes", dense_rss},
       {"sweep_sketch_rss_bytes", sketch_rss},
       {"sweep_accounted_reduction_ratio", accounted_ratio},
       {"sweep_rss_reduction_ratio", rss_ratio}});
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
  KeepAlive(predict_model.Fit(predict_data).ok());
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
        KeepAlive(hist_region.data());
      }
    });
  };
  const double hist_simd = time_hist(ml::ActiveSimdKernels());
  const double hist_scalar =
      time_hist(ml::kSimdKernels[static_cast<int>(SimdLevel::kScalar)]);

  SetParallelThreads(1);
  const double train_1t = BestSecondsOf([&] {
    ml::GbdtClassifier model({.num_rounds = 10});
    KeepAlive(model.Fit(train_data).ok());
  });
  const double forest_1t = BestSecondsOf([&] {
    std::vector<double> proba;
    for (int r = 0; r < 8; ++r) {
      predict_model.PredictProbaBatchInto(predict_data.x, &proba);
      KeepAlive(proba.data());
    }
  });
  SetSimdLevel(SimdLevel::kScalar);
  const double train_1t_scalar = BestSecondsOf([&] {
    ml::GbdtClassifier model({.num_rounds = 10});
    KeepAlive(model.Fit(train_data).ok());
  });
  SetSimdLevel(active_level);
  SetParallelThreads(4);
  const double train_4t = BestSecondsOf([&] {
    ml::GbdtClassifier model({.num_rounds = 10});
    KeepAlive(model.Fit(train_data).ok());
  });
  SetParallelThreads(0);

  const double predict_batch = BestSecondsOf([&] {
    std::vector<double> proba;
    for (size_t i = 0; i < 20000; ++i) {
      predict_model.PredictProbaInto(
          predict_data.x[i % predict_data.NumRows()], &proba);
      KeepAlive(proba.data());
    }
  });

  WriteBenchJson("BENCH_gbdt.json",
                 {{"gbdt_train_1t", train_1t},
                  {"gbdt_train_1t_scalar", train_1t_scalar},
                  {"gbdt_train_4t", train_4t},
                  {"gbdt_predict_batch", predict_batch},
                  {"gbdt_hist_accumulate", hist_simd},
                  {"gbdt_hist_accumulate_scalar", hist_scalar},
                  {"gbdt_predict_row_1t", forest_1t}},
                 {{"simd_level", SimdLevelName(active_level)}});
}

// Online model lifecycle timings (cold + warm retrain wall-time, the
// gate-and-swap phase, rollback), written to BENCH_lifecycle.json and
// uploaded by the CI bench job next to the other summaries. These are
// informational (filesystem-bound, not regression-gated): the number that
// matters operationally is the swap/rollback latency the serving path
// observes, not the training time.
void WriteBenchLifecycleJson() {
  core::ModelLifecycleOptions options;
  options.dir = BenchTempPath("lifecycle_registry");
  options.gbdt.num_rounds = 10;
  options.seed = 17;
  auto lifecycle = core::ModelLifecycle::Open(options);
  if (!lifecycle.ok()) return;

  const ml::Dataset window_a = MakeTabular(2000, 20, 3, 41);
  const ml::Dataset window_b = MakeTabular(2000, 20, 3, 42);

  // Cold cycle (no parent), then a warm cycle (warm-started from v1).
  const double cold_s = SecondsOf([&] {
    KeepAlive((*lifecycle)->RetrainAndSwap(window_a, 0, 2000).ok());
  });
  const double warm_s = SecondsOf([&] {
    KeepAlive((*lifecycle)->RetrainAndSwap(window_b, 2000, 4000).ok());
  });

  // Gate + swap alone: train phase 1 outside the timer.
  auto version = (*lifecycle)->TrainCandidate(window_a, 4000, 6000);
  double swap_s = 0.0;
  if (version.ok()) {
    swap_s = SecondsOf([&] {
      KeepAlive((*lifecycle)->ValidateAndSwap(*version, window_a).ok());
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
                       KeepAlive((*lifecycle)
                                     ->Rollback(i % 2 == 0 ? other : live)
                                     .ok());
                     }
                   }) /
                   kReps;
    }
  }

  WriteBenchJson("BENCH_lifecycle.json", {},
                 {{"retrain_cold_seconds", cold_s},
                  {"retrain_warm_seconds", warm_s},
                  {"validate_and_swap_seconds", swap_s},
                  {"rollback_seconds", rollback_s},
                  {"window_rows", static_cast<double>(window_a.NumRows())}});
}

}  // namespace

int main() {
  WriteBenchIoJson();
  WriteBenchParallelJson();
  WriteBenchKernelsJson();
  WriteBenchGbdtJson();
  WriteBenchSketchJson();
  WriteBenchLifecycleJson();
  return 0;
}
