// Copyright 2026 The rvar Authors.
//
// Load generator for the overload-resilient serving front-end
// (src/serve/, DESIGN.md §12), emitting BENCH_serving.json for the CI
// bench-regression gate.
//
// Two traffic shapes:
//   * closed loop — a fixed client pool issues one request at a time and
//     waits for each answer; measures serving capacity (QPS) and the
//     request latency distribution (p50/p99/p999 read back from the obs
//     latency histogram the front-end itself populates).
//   * open loop — clients fire a 10x burst without waiting, against a
//     deliberately small queue and token budget; measures how much the
//     admission controller sheds and that every future still resolves.
//
// The gated `kernels` map carries the two CPU-bound timings (batch predict
// and the closed-loop drain), written through bench_common like every
// other BENCH_*.json summary; the throughput/shedding numbers land in the
// ungated `info` map because shed rate is a policy outcome, not a
// performance regression signal.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/predictor.h"
#include "core/shape_service.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "sim/datasets.h"

namespace {

using namespace rvar;
using bench::BestSecondsOf;
using bench::KeepAlive;

struct SpikeStats {
  int64_t served = 0;
  int64_t shed = 0;
  int64_t degraded = 0;  // served below kFullModel
  std::vector<int64_t> shed_by_reason =
      std::vector<int64_t>(serve::kNumShedReasons, 0);
};

}  // namespace

int main() {
  // Fixture: the same study-suite shape the serve tests train against.
  sim::SuiteConfig suite_config;
  suite_config.num_groups = 40;
  suite_config.d1_days = 3.0;
  suite_config.d2_days = 1.5;
  suite_config.d3_days = 0.5;
  suite_config.d1_support = 12;
  suite_config.seed = 311;
  auto suite = sim::BuildStudySuite(suite_config);
  if (!suite.ok()) {
    std::fprintf(stderr, "suite: %s\n", suite.status().ToString().c_str());
    return 1;
  }

  core::PredictorConfig predictor_config;
  predictor_config.shape.num_clusters = 3;
  predictor_config.shape.min_support = 12;
  predictor_config.shape.kmeans.num_restarts = 3;
  predictor_config.gbdt.num_rounds = 15;
  auto predictor = core::VariationPredictor::Train(*suite, predictor_config);
  if (!predictor.ok()) {
    std::fprintf(stderr, "train: %s\n",
                 predictor.status().ToString().c_str());
    return 1;
  }

  auto service = core::ShapeService::Make(&(*predictor)->shapes());
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  (*service)->SwapModel((*predictor)->ModelSnapshot());

  const std::vector<sim::JobRun>& runs = suite->d3.telemetry.runs();
  if (runs.empty()) {
    std::fprintf(stderr, "no d3 runs to serve\n");
    return 1;
  }

  // --- Gated kernel 1: the epoch-pinned batch scoring the workers use ----
  std::vector<const sim::JobRun*> batch;
  for (size_t i = 0; i < 256; ++i) batch.push_back(&runs[i % runs.size()]);
  const auto model = (*service)->ModelSnapshot();
  std::vector<int> shapes;
  std::vector<Status> run_status;
  // Untimed warmup: the first ParallelFor call spawns the worker pool.
  (void)(*predictor)
      ->PredictShapeBatchInto(*model, batch, &shapes, &run_status);
  const double batch_predict_s = BestSecondsOf([&] {
    uint64_t acc = 0;
    for (int rep = 0; rep < 200; ++rep) {
      (void)(*predictor)
          ->PredictShapeBatchInto(*model, batch, &shapes, &run_status);
      acc += static_cast<uint64_t>(shapes.empty() ? 0 : shapes[0] + 1);
    }
    KeepAlive(acc);
  });

  // --- Gated kernel 2 + QPS/latency: closed-loop through the front-end ---
  constexpr int kClosedClients = 4;
  constexpr int kClosedPerClient = 1500;
  constexpr int kClosedTotal = kClosedClients * kClosedPerClient;
  serve::FrontendOptions closed_options;
  closed_options.max_batch = 32;
  closed_options.batch_linger = std::chrono::microseconds(0);
  closed_options.default_deadline = std::chrono::milliseconds(2000);
  closed_options.num_workers = 2;
  auto closed_frontend = serve::ServingFrontend::Make(
      service->get(), predictor->get(), closed_options);
  if (!closed_frontend.ok()) {
    std::fprintf(stderr, "frontend: %s\n",
                 closed_frontend.status().ToString().c_str());
    return 1;
  }
  const double closed_loop_s = BestSecondsOf([&] {
    std::vector<std::thread> clients;
    std::atomic<uint64_t> acc{0};
    for (int c = 0; c < kClosedClients; ++c) {
      clients.emplace_back([&, c] {
        uint64_t local = 0;
        for (int i = 0; i < kClosedPerClient; ++i) {
          const sim::JobRun& run =
              runs[(static_cast<size_t>(c) * kClosedPerClient + i) %
                   runs.size()];
          const serve::PredictResponse response =
              (*closed_frontend)
                  ->Predict(run, serve::Priority::kInteractive,
                            std::chrono::seconds(5));
          local += static_cast<uint64_t>(response.shape + 2);
        }
        acc.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : clients) t.join();
    KeepAlive(acc.load());
  });
  const double closed_loop_qps = kClosedTotal / closed_loop_s;

  // Latency quantiles straight off the obs histogram the front-end
  // populates (all three best-of reps accumulate into it, which only
  // tightens the tails).
  obs::Histogram* latency = obs::Registry::Default().GetHistogram(
      "serve_request_latency_seconds");
  const double p50 = latency->Quantile(0.50);
  const double p99 = latency->Quantile(0.99);
  const double p999 = latency->Quantile(0.999);
  (*closed_frontend)->Shutdown();

  // --- Open-loop 10x spike against a deliberately small admission box ----
  constexpr int kSpikeClients = 8;
  constexpr int kSpikePerClient = 2000;
  constexpr int kSpikeTotal = kSpikeClients * kSpikePerClient;
  serve::FrontendOptions spike_options = closed_options;
  spike_options.default_deadline = std::chrono::milliseconds(50);
  spike_options.admission.queue_capacity = 256;
  spike_options.admission.best_effort_watermark = 64;
  spike_options.admission.standard_watermark = 192;
  spike_options.admission.bucket.rate_per_second = 20000.0;
  spike_options.admission.bucket.burst = 500.0;
  auto spike_frontend = serve::ServingFrontend::Make(
      service->get(), predictor->get(), spike_options);
  if (!spike_frontend.ok()) {
    std::fprintf(stderr, "spike frontend: %s\n",
                 spike_frontend.status().ToString().c_str());
    return 1;
  }

  SpikeStats stats;
  double spike_s = 0.0;
  {
    std::vector<std::vector<std::future<serve::PredictResponse>>> futures(
        kSpikeClients);
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < kSpikeClients; ++c) {
      futures[c].reserve(kSpikePerClient);
      clients.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kSpikePerClient; ++i) {
          serve::PredictRequest request;
          request.run = &runs[(static_cast<size_t>(c) * kSpikePerClient + i) %
                              runs.size()];
          request.priority = static_cast<serve::Priority>(i % 3);
          request.deadline = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(50);
          futures[c].push_back((*spike_frontend)->Submit(std::move(request)));
        }
      });
    }
    const auto spike_start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();
    for (auto& per_client : futures) {
      for (auto& f : per_client) {
        const serve::PredictResponse response = f.get();
        if (response.served()) {
          ++stats.served;
          if (response.level != serve::DegradationLevel::kFullModel) {
            ++stats.degraded;
          }
        } else {
          ++stats.shed;
          ++stats.shed_by_reason[static_cast<int>(response.shed)];
        }
      }
    }
    spike_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            spike_start)
                  .count();
  }
  (*spike_frontend)->Shutdown();

  // --- Mixed-group Observe throughput: 1 shard vs 4 shards --------------
  // The acceptance bar for the share-nothing refactor: concurrent writers
  // spraying observations across many groups must get strictly more
  // throughput once the tracker maps stop sharing a lock. Ungated (lands
  // in `info`) because the absolute numbers are machine-dependent; the
  // 4-shard-vs-1-shard ratio is the signal.
  constexpr int kObserveThreads = 4;
  constexpr int kObservePerThread = 30000;
  constexpr int kObserveGroups = 64;
  auto observe_qps = [&](int num_shards) -> double {
    core::ShapeService::Options options;
    options.num_shards = num_shards;
    auto contended = core::ShapeService::Make(&(*predictor)->shapes(), options);
    if (!contended.ok()) return 0.0;
    const double seconds = BestSecondsOf([&] {
      std::vector<std::thread> writers;
      for (int t = 0; t < kObserveThreads; ++t) {
        writers.emplace_back([&, t] {
          for (int i = 0; i < kObservePerThread; ++i) {
            const int gid = (t * kObservePerThread + i * 7) % kObserveGroups;
            (void)(*contended)->Observe(gid, 1.0 + 0.001 * (i % 9));
          }
        });
      }
      for (std::thread& t : writers) t.join();
      KeepAlive((*contended)->TotalObservations());
    });
    return kObserveThreads * kObservePerThread / seconds;
  };
  const double observe_qps_1shard = observe_qps(1);
  const double observe_qps_4shard = observe_qps(4);

  const auto shed_count = [&](serve::ShedReason reason) {
    return static_cast<double>(stats.shed_by_reason[static_cast<int>(reason)]);
  };
  bench::WriteBenchJson(
      "BENCH_serving.json",
      {{"serving_batch_predict", batch_predict_s},
       {"serving_closed_loop", closed_loop_s}},
      {{"closed_loop_requests", static_cast<double>(kClosedTotal)},
       {"closed_loop_qps", closed_loop_qps},
       {"latency_p50_seconds", p50},
       {"latency_p99_seconds", p99},
       {"latency_p999_seconds", p999},
       {"open_loop_requests", static_cast<double>(kSpikeTotal)},
       {"open_loop_seconds", spike_s},
       {"open_loop_served", static_cast<double>(stats.served)},
       {"open_loop_degraded", static_cast<double>(stats.degraded)},
       {"open_loop_shed", static_cast<double>(stats.shed)},
       {"open_loop_shed_rate", static_cast<double>(stats.shed) / kSpikeTotal},
       {"shed_queue_full", shed_count(serve::ShedReason::kQueueFull)},
       {"shed_watermark", shed_count(serve::ShedReason::kWatermark)},
       {"shed_tokens", shed_count(serve::ShedReason::kTokens)},
       {"shed_deadline", shed_count(serve::ShedReason::kDeadline)},
       {"observe_qps_1shard", observe_qps_1shard},
       {"observe_qps_4shard", observe_qps_4shard},
       {"observe_shard_speedup", observe_qps_1shard > 0.0
                                     ? observe_qps_4shard / observe_qps_1shard
                                     : 0.0}});
  return 0;
}
