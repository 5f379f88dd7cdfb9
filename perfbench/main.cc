// Copyright 2026 The rvar Authors.
//
// rvar_bench: one run of one benchmark workload (perfbench/README.md).
//
//   rvar_bench --workload serve|mixed --seed N --seconds S --trace 0|1
//              --dir DIR --out FILE [serving settings, see workloads.json]
//
// Every workload runs the study pipeline, brings up the serving stack, and
// spends the measured seconds in rounds that repeat the pipeline and serve
// traffic; the workload decides what runs beside the traffic.
// The run writes every metric sample, check and count to FILE as JSON;
// perfbench/run.py reduces them to medians and prints the result line.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "common/parallel.h"

namespace {

using namespace rvar;
using namespace rvar::perfbench;

/// Peak resident set size of this process, in MB (VmHWM).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Cost of one recorded span, measured on a private batch of spans.
double SpanCostNs() {
  constexpr int kSpans = 100000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Span span("span-cost", "obs");
  }
  return 1e9 * SecondsSince(start) / kSpans;
}

int Usage(const char* msg) {
  std::fprintf(stderr, "rvar_bench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--dir") options.dir = value;
    else if (key == "--out") out_path = value;
    else if (key == "--study-groups") options.study_groups = std::stoi(value);
    else if (key == "--nominal-rps") options.serve.nominal_rps = std::stod(value);
    else if (key == "--capacity-window")
      options.serve.capacity_window = std::stoi(value);
    else if (key == "--zipf-s") options.serve.zipf_s = std::stod(value);
    else if (key == "--frontend-workers")
      options.serve.frontend_workers = std::stoi(value);
    else if (key == "--batch-linger-us")
      options.serve.batch_linger_us = std::stoi(value);
    else if (key == "--deadline-ms")
      options.serve.deadline_ms = std::stoi(value);
    else if (key == "--queue-capacity")
      options.serve.queue_capacity = std::stoi(value);
    else if (key == "--pool-threads")
      options.serve.pool_threads = std::stoi(value);
    else return Usage(("unknown flag " + key).c_str());
  }
  if (options.workload != "serve" && options.workload != "mixed") {
    return Usage("--workload must be serve or mixed");
  }
  if (options.dir.empty() || out_path.empty()) {
    return Usage("--dir and --out are required");
  }
  if (options.study_groups <= 0 || options.serve.nominal_rps <= 0.0 ||
      options.serve.capacity_window <= 0) {
    return Usage("study or serving settings missing");
  }
  std::filesystem::create_directories(options.dir);

  SetParallelThreads(options.serve.pool_threads);
  Tracer::Get().Enable(options.trace);
  Report report;

  // The offline pipeline, then the serving side, which runs the pipeline
  // again at the start of each round; every repetition must give the same
  // answers.
  const Pipeline pipeline = RunPipeline(options, &report);
  report.Account(1, 0);
  report.Info("study.accuracy", pipeline.accuracy);
  report.Info("study.shapes_hash", static_cast<double>(pipeline.shapes_hash));
  if (options.trace) RunStageBreakdown(options, pipeline, &report);
  int reps = 1;
  bool same = true;
  RunOnline(options, pipeline,
            [&] {
              const Pipeline again = RunPipeline(options, &report);
              report.Account(1, 0);
              same = same && again.accuracy == pipeline.accuracy &&
                     again.shapes_hash == pipeline.shapes_hash;
              ++reps;
              return again.study_seconds;
            },
            &report);
  report.Check("study.repetitions_agree", same,
               std::to_string(reps) + " pipelines, same accuracy and hash");
  report.Add("peak_rss_mb", "MB", PeakRssMb());

  if (options.trace) {
    for (const auto& [layer, seconds] : Tracer::Get().SelfSecondsByLayer()) {
      report.Add("self." + layer + "_s", "s", seconds);
    }
    // The stage spans of each pipeline against its study_s (the root span):
    // the stages' self times must add up to study_s within 1%.
    std::map<uint64_t, double> stage_seconds;
    const std::vector<SpanRecord> spans = Tracer::Get().Spans();
    for (const SpanRecord& s : spans) {
      if (s.parent != 0) stage_seconds[s.parent] += 1e-9 * (s.end_ns - s.start_ns);
    }
    for (const SpanRecord& s : spans) {
      if (std::string(s.name) != "study") continue;
      const double share =
          stage_seconds[s.id] / (1e-9 * static_cast<double>(s.end_ns - s.start_ns));
      report.Add("obs.study_attributed_share", "ratio", share);
      report.Check("study.stages_add_up", share >= 0.99 && share <= 1.0,
                   "stage spans cover " + std::to_string(share) + " of study_s");
    }
    report.Add("obs.span_cost_ns", "ns", SpanCostNs());
    if (!Tracer::Get().WriteJson(options.dir + "/spans.json")) {
      report.Check("trace.spans_written", false, options.dir + "/spans.json");
    }
  }

  std::ofstream out(out_path);
  out << report.ToJson() << "\n";
  out.close();
  return out ? 0 : 1;
}
