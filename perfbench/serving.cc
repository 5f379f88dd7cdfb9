// Copyright 2026 The rvar Authors.
//
// The online side of the benchmark: serving-stack set-up, open-loop
// prediction traffic (one generator thread, one collector thread), the
// closed-loop capacity phase behind capacity_rps, durable writes, drift
// queries, retrain-and-swap and recovery. Every workload runs each of these;
// the workload decides what runs beside what.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/check.h"
#include "common/strings.h"
#include "core/model_lifecycle.h"
#include "core/normalization.h"
#include "core/shape_service.h"
#include "io/recovery.h"
#include "obs/metrics.h"
#include "serve/frontend.h"

namespace rvar {
namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Durable writes checkpoint every kCheckpointEvery acknowledgements and stop
/// kRecoverTail writes past a checkpoint, so every recovery replays the same
/// number of WAL records.
constexpr int64_t kCheckpointEvery = 16384;
constexpr int64_t kRecoverTail = 8192;
constexpr int kWarmupRequests = 1000;
/// Boosting rounds each retrain adds on top of the served model.
constexpr int kRetrainRounds = 10;
constexpr int kDriftProbeQueries = 20000;
constexpr int kRecoverReps = 11;
/// The measured seconds are split over kRounds rounds (see RunOnline), so
/// that every metric is a median over samples spread across the whole run:
/// the shared reference box has slow stretches of a few seconds, which then
/// own a few samples of each metric rather than all of one.
constexpr int kRounds = 10;
/// Each nominal block must hold this many predictions, so that at least ten
/// lie beyond its p99.
constexpr int64_t kMinBlockRequests = 1000;
constexpr double kCapacitySeconds = 0.3;
constexpr double kRetrainProbeSeconds = 0.5;
/// When, after the start of the retrain probe's traffic, the retrain starts.
constexpr double kRetrainAt = 0.05;
constexpr double kWriteSliceSeconds = 0.25;
constexpr double kHandoffSeconds = 1.0;

double UniformDouble(std::mt19937_64* rng) {
  return static_cast<double>((*rng)() >> 11) * 0x1.0p-53;
}

/// Zipf-skewed group popularity over the D3 groups, uniform runs within a
/// group. The popularity ranking is one fixed shuffle of the groups, so
/// that seeds vary the request stream but not which ShapeService shards are
/// hot: with a ranking drawn from the seed, capacity_rps moved with the
/// balance of the hot groups over the two workers.
class TrafficMix {
 public:
  TrafficMix(const sim::TelemetryStore& d3, double s) {
    std::unordered_map<int, std::vector<int>> by_group;
    const std::vector<sim::JobRun>& runs = d3.runs();
    for (size_t i = 0; i < runs.size(); ++i) {
      by_group[runs[i].group_id].push_back(static_cast<int>(i));
    }
    for (int gid : d3.GroupIds()) {
      if (by_group.count(gid) != 0) groups_.push_back(by_group[gid]);
    }
    std::mt19937_64 rng(0x5eedf00dULL);
    std::shuffle(groups_.begin(), groups_.end(), rng);
    double total = 0.0;
    for (size_t r = 0; r < groups_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  int NextRun(std::mt19937_64* rng) const {
    const double u = UniformDouble(rng);
    const size_t g = std::min<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        groups_.size() - 1);
    const std::vector<int>& runs = groups_[g];
    return runs[static_cast<size_t>((*rng)() % runs.size())];
  }

 private:
  std::vector<std::vector<int>> groups_;
  std::vector<double> cdf_;
};

struct Arrival {
  int64_t due_ns = 0;  ///< offset from the phase start
  int run = 0;         ///< index into the D3 runs
  bool drift = false;  ///< a drift query instead of a prediction
};

/// Poisson arrivals at `rps` predictions plus `drift_rps` drift queries.
std::vector<Arrival> MakeSchedule(const TrafficMix& mix, double rps,
                                  double drift_rps, double seconds,
                                  std::mt19937_64* rng) {
  std::vector<Arrival> schedule;
  const double total = rps + drift_rps;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - UniformDouble(rng)) / total;
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = static_cast<int64_t>(t * 1e9);
    a.drift = UniformDouble(rng) * total < drift_rps;
    a.run = mix.NextRun(rng);
    schedule.push_back(a);
  }
  return schedule;
}

/// What happened to one arrival.
struct Outcome {
  double latency_us = kInf;  ///< due time -> answer; kInf when it failed
  double late_us = 0.0;      ///< generator lateness against the schedule
  serve::ShedReason shed = serve::ShedReason::kNone;
  serve::DegradationLevel level = serve::DegradationLevel::kFullModel;
  int shape = -1;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  std::vector<double> drift_us;  ///< drift query call times
};

/// One drift query: ProbabilityOf of the group's own cluster index for
/// even `i`, PriorShape for odd `i`.
void DriftQuery(const core::ShapeService& service, int gid, size_t i) {
  if (i % 2 == 0) {
    (void)service.ProbabilityOf(gid, gid % service.library().num_clusters());
  } else {
    (void)service.PriorShape(gid);
  }
}

void WaitUntil(Clock::time_point due) {
  const auto spin = std::chrono::microseconds(50);
  if (Clock::now() + spin < due) std::this_thread::sleep_until(due - spin);
  while (Clock::now() < due) {
  }
}

/// Runs `schedule` open loop against `frontend` from `start` on: this
/// thread submits each request at its due time (drift queries run inline on
/// it), one collector thread gathers the answers.
PhaseResult RunOpenLoop(serve::ServingFrontend* frontend,
                        const core::ShapeService& service,
                        const std::vector<sim::JobRun>& runs,
                        const std::vector<Arrival>& schedule,
                        std::chrono::milliseconds budget,
                        Clock::time_point start) {
  const size_t n = schedule.size();
  PhaseResult result;
  result.outcomes.resize(n);
  std::vector<std::future<serve::PredictResponse>> futures(n);
  std::vector<int64_t> submit_ns(n, 0);
  std::atomic<size_t> published{0};

  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      if (schedule[i].drift) continue;
      const serve::PredictResponse response = futures[i].get();
      Outcome& o = result.outcomes[i];
      o.late_us = 1e-3 * static_cast<double>(submit_ns[i] - schedule[i].due_ns);
      o.shed = response.shed;
      o.level = response.level;
      o.shape = response.shape;
      if (response.served()) {
        o.latency_us = o.late_us + 1e6 * response.latency_seconds;
      }
    }
  });

  for (size_t i = 0; i < n; ++i) {
    const Arrival& a = schedule[i];
    const Clock::time_point due = start + std::chrono::nanoseconds(a.due_ns);
    WaitUntil(due);
    const Clock::time_point now = Clock::now();
    submit_ns[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       now - start)
                       .count();
    const int gid = runs[static_cast<size_t>(a.run)].group_id;
    if (a.drift) {
      Span span("ShapeService::ProbabilityOf", "core");
      DriftQuery(service, gid, i);
      result.drift_us.push_back(1e6 * SecondsSince(now));
      result.outcomes[i].late_us =
          1e-3 * static_cast<double>(submit_ns[i] - a.due_ns);
      result.outcomes[i].latency_us = 0.0;
    } else {
      Span span("ServingFrontend::Submit", "serve");
      serve::PredictRequest request;
      request.run = &runs[static_cast<size_t>(a.run)];
      request.priority = serve::Priority::kInteractive;
      request.deadline = due + budget;
      futures[i] = frontend->Submit(request);
    }
    published.store(i + 1, std::memory_order_release);
  }
  collector.join();
  return result;
}

/// Per-phase accounting and exact latency quantiles.
struct Summary {
  int64_t attempted = 0;
  int64_t failed = 0;  ///< shed + late + degraded
  int64_t late = 0;
  int64_t wrong = 0;   ///< full-model answers the oracle rejects
  std::array<int64_t, serve::kNumDegradationLevels> by_level{};
  std::array<int64_t, serve::kNumShedReasons> by_reason{};
  std::vector<double> latency_us;  ///< predictions, failures as kInf
  std::vector<double> late_us;
};

/// Counts one prediction into `s` and returns its latency, kInf when it
/// was shed, degraded or late.
double Tally(const Outcome& o, int run, double budget_us,
             const std::function<bool(int, int)>& oracle, Summary* s) {
  ++s->attempted;
  double latency = o.latency_us;
  if (o.shed != serve::ShedReason::kNone) {
    ++s->by_reason[static_cast<size_t>(o.shed)];
    latency = kInf;
  } else {
    ++s->by_level[static_cast<size_t>(o.level)];
    if (o.level != serve::DegradationLevel::kFullModel) {
      latency = kInf;
    } else if (oracle && !oracle(run, o.shape)) {
      ++s->wrong;
    }
    if (o.latency_us > budget_us) {
      ++s->late;
      latency = kInf;
    }
  }
  if (latency == kInf) ++s->failed;
  return latency;
}

Summary Summarize(const std::vector<Arrival>& schedule,
                  const PhaseResult& result, double budget_us,
                  const std::function<bool(int, int)>& oracle) {
  Summary s;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].drift) continue;
    const Outcome& o = result.outcomes[i];
    s.late_us.push_back(o.late_us);
    s.latency_us.push_back(Tally(o, schedule[i].run, budget_us, oracle, &s));
  }
  return s;
}

/// What one closed-loop phase served: its counts (no latencies) and the
/// (run, shape) of every full-model answer, checked against the oracle once
/// every model epoch of the run is known.
struct ClosedLoopResult {
  Summary counts;
  std::vector<std::pair<int, int>> answers;
  double answers_per_s = 0.0;
};

/// Closed loop from this thread for `seconds`: `window` requests stay in
/// flight, and each answer lets the next request go. Latency runs from the
/// send.
ClosedLoopResult RunClosedLoop(serve::ServingFrontend* frontend,
                               const std::vector<sim::JobRun>& runs,
                               const TrafficMix& mix, int window,
                               double seconds,
                               std::chrono::milliseconds budget,
                               std::mt19937_64* rng) {
  const double budget_us = 1e3 * static_cast<double>(budget.count());
  ClosedLoopResult result;
  std::deque<std::pair<int, std::future<serve::PredictResponse>>> in_flight;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (true) {
    for (Clock::time_point now = Clock::now();
         static_cast<int>(in_flight.size()) < window && now < end;
         now = Clock::now()) {
      const int run = mix.NextRun(rng);
      Span span("ServingFrontend::Submit", "serve");
      serve::PredictRequest request;
      request.run = &runs[static_cast<size_t>(run)];
      request.priority = serve::Priority::kInteractive;
      request.deadline = now + budget;
      in_flight.emplace_back(run, frontend->Submit(request));
    }
    if (in_flight.empty()) break;
    const int run = in_flight.front().first;
    const serve::PredictResponse response = in_flight.front().second.get();
    in_flight.pop_front();
    Outcome o;
    o.shed = response.shed;
    o.level = response.level;
    o.shape = response.shape;
    if (response.served()) o.latency_us = 1e6 * response.latency_seconds;
    if (Tally(o, run, budget_us, nullptr, &result.counts) != kInf) {
      result.answers.emplace_back(run, o.shape);
    }
  }
  result.answers_per_s =
      static_cast<double>(result.counts.attempted) / SecondsSince(start);
  return result;
}

std::string Accounting(const Summary& s) {
  std::string out = StrCat("attempted ", s.attempted);
  for (int l = 0; l < serve::kNumDegradationLevels; ++l) {
    out += StrCat(", ",
                  serve::DegradationLevelName(
                      static_cast<serve::DegradationLevel>(l)),
                  " ", s.by_level[static_cast<size_t>(l)]);
  }
  for (int r = 1; r < serve::kNumShedReasons; ++r) {
    out += StrCat(", shed/",
                  serve::ShedReasonName(static_cast<serve::ShedReason>(r)), " ",
                  s.by_reason[static_cast<size_t>(r)]);
  }
  return StrCat(out, ", late ", s.late);
}

/// Per-call timings: p50 and p99 when at least 1000 calls were timed.
void AddCallQuantiles(const std::string& name, const std::vector<double>& us,
                      Report* report) {
  report->Check(name + "_samples", us.size() >= 1000,
                StrCat(us.size(), " timed calls"));
  report->Add(name + "_p50_us", "us", Quantile(us, 0.50));
  report->Add(name + "_p99_us", "us", Quantile(us, 0.99));
}

/// One (group, normalized runtime) observation.
struct Observation {
  int group_id = 0;
  double value = 0.0;
};

std::vector<Observation> Observations(const sim::TelemetryStore& store,
                                      const core::VariationPredictor& p) {
  std::vector<Observation> out;
  const core::Normalization norm = p.shapes().normalization();
  for (const sim::JobRun& run : store.runs()) {
    auto median = p.medians().Of(run.group_id);
    if (!median.ok()) continue;
    out.push_back({run.group_id,
                   core::NormalizeRuntime(norm, run.runtime_seconds, *median)});
  }
  return out;
}

/// The serving stack one set-up builds. Members are declared so that the
/// front-end and the lifecycle, which point at the service, go first.
struct Stack {
  std::string dir;
  std::unique_ptr<core::ShapeService> service;
  std::unique_ptr<core::ModelLifecycle> lifecycle;
  std::unique_ptr<io::RecoveryManager> recovery;
  std::unique_ptr<serve::ServingFrontend> frontend;
};

serve::FrontendOptions FrontendOptionsFor(const ServeSettings& s) {
  serve::FrontendOptions options;  // library defaults, except these four
  options.num_workers = s.frontend_workers;
  options.default_deadline = std::chrono::milliseconds(s.deadline_ms);
  options.batch_linger = std::chrono::microseconds(s.batch_linger_us);
  options.admission.queue_capacity = static_cast<size_t>(s.queue_capacity);
  return options;
}

/// Builds a service with the D2 history ingested, the front-end, a model
/// lifecycle bootstrapped with one cold candidate, and a durable state
/// directory, then warms the front-end up.
Stack BringUp(const RunOptions& options, const Pipeline& pipeline,
              const std::vector<Observation>& history,
              const ml::Dataset& first_window, bool attach_lifecycle,
              int rep) {
  Span span("setup", "bench");
  const core::VariationPredictor& predictor = *pipeline.predictor;
  Stack stack;
  stack.dir = StrCat(options.dir, "/stack", rep);
  std::filesystem::remove_all(stack.dir);
  {
    Span s("ShapeService::Make", "core");
    auto service = core::ShapeService::Make(&predictor.shapes());
    RVAR_CHECK(service.ok()) << service.status().ToString();
    stack.service = *std::move(service);
    stack.service->SwapModel(predictor.ModelSnapshot());
  }
  {
    Span s("ShapeService::Observe[history]", "core");
    for (const Observation& o : history) {
      RVAR_CHECK(stack.service->Observe(o.group_id, o.value).ok());
    }
  }
  {
    // The registry's first version is a cold candidate with the standard
    // model's rounds; the lifecycle is then reopened with kRetrainRounds,
    // so each retrain warm-starts a few rounds on top of it.
    Span s("ModelLifecycle::Open", "core");
    core::ModelLifecycleOptions lifecycle_options;
    lifecycle_options.dir = stack.dir + "/registry";
    lifecycle_options.gbdt = predictor.config().gbdt;
    lifecycle_options.seed = options.seed;
    {
      auto bootstrap = core::ModelLifecycle::Open(lifecycle_options);
      RVAR_CHECK(bootstrap.ok()) << bootstrap.status().ToString();
      const Status st = (*bootstrap)->RetrainAndSwap(first_window, 0,
                                                     first_window.NumRows());
      RVAR_CHECK(st.ok()) << st.ToString();
    }
    lifecycle_options.gbdt.num_rounds = kRetrainRounds;
    auto lifecycle = core::ModelLifecycle::Open(lifecycle_options);
    RVAR_CHECK(lifecycle.ok()) << lifecycle.status().ToString();
    stack.lifecycle = *std::move(lifecycle);
    if (attach_lifecycle) {
      stack.lifecycle->AttachShapeService(stack.service.get());
      stack.service->SwapModel(stack.lifecycle->LiveModel());
    }
  }
  {
    Span s("RecoveryManager::Bootstrap", "io");
    auto recovery = io::RecoveryManager::Open(stack.dir + "/state");
    RVAR_CHECK(recovery.ok()) << recovery.status().ToString();
    stack.recovery =
        std::make_unique<io::RecoveryManager>(*std::move(recovery));
    RVAR_CHECK(stack.recovery->Bootstrap(predictor.shapes()).ok());
  }
  {
    Span s("ServingFrontend::Make", "serve");
    auto frontend = serve::ServingFrontend::Make(
        stack.service.get(), &predictor, FrontendOptionsFor(options.serve));
    RVAR_CHECK(frontend.ok()) << frontend.status().ToString();
    stack.frontend = *std::move(frontend);
  }
  {
    Span s("ServingFrontend::Predict[warm-up]", "serve");
    const std::vector<sim::JobRun>& runs = pipeline.suite.d3.telemetry.runs();
    for (int i = 0; i < kWarmupRequests; ++i) {
      const serve::PredictResponse r = stack.frontend->Predict(
          runs[static_cast<size_t>(i * 7919) % runs.size()],
          serve::Priority::kInteractive, std::chrono::seconds(5));
      RVAR_CHECK(r.served());
    }
  }
  return stack;
}

/// The durable writes of a run: one closed loop of RecoveryManager::Observe
/// then ShapeService::Observe, with a Checkpoint every kCheckpointEvery
/// acknowledgements. It runs in phases; the last one goes on to the next
/// kRecoverTail boundary, so recovery always replays the same tail.
class Writer {
 public:
  Writer(Stack* stack, const std::vector<Observation>* stream, uint64_t seed)
      : stack_(stack), stream_(stream) {
    std::mt19937_64 rng(seed ^ 0xa11ce5ULL);
    cursor_ = static_cast<size_t>(rng() % stream->size());
  }

  /// Writes until `done()` holds (then, with `to_tail`, on to the
  /// boundary); with `sample`, adds the phase's observe_per_s.
  void Run(const std::function<bool()>& done, bool to_tail, bool sample,
           Report* report) {
    const Clock::time_point start = Clock::now();
    const int64_t acked_before = acked_;
    int64_t errors = 0;
    while (!(done() && (!to_tail || acked_ % kCheckpointEvery == kRecoverTail))) {
      const Observation& o = (*stream_)[cursor_];
      cursor_ = (cursor_ + 1) % stream_->size();
      const Clock::time_point t0 = Clock::now();
      Status st;
      {
        Span s("RecoveryManager::Observe", "io");
        st = stack_->recovery->Observe(o.group_id, o.value);
      }
      const Clock::time_point t1 = Clock::now();
      if (st.ok()) {
        Span s("ShapeService::Observe", "core");
        st = stack_->service->Observe(o.group_id, o.value);
      }
      const Clock::time_point t2 = Clock::now();
      if (!st.ok()) {
        ++errors;
        continue;
      }
      ++acked_;
      wal_us_.push_back(1e6 * SecondsBetween(t0, t1));
      observe_us_.push_back(1e6 * SecondsBetween(t1, t2));
      if (acked_ % kCheckpointEvery == 0) {
        Span s("RecoveryManager::Checkpoint", "io");
        const Clock::time_point c0 = Clock::now();
        if (!stack_->recovery->Checkpoint().ok()) ++errors;
        checkpoint_s_.push_back(SecondsSince(c0));
      }
    }
    const int64_t acked = acked_ - acked_before;
    report->Account(acked + errors, errors);
    if (sample) {
      report->Add("observe_per_s", "obs/s",
                  static_cast<double>(acked) / SecondsSince(start));
    }
  }

  int64_t acked() const { return acked_; }
  const std::vector<double>& wal_us() const { return wal_us_; }
  const std::vector<double>& observe_us() const { return observe_us_; }
  const std::vector<double>& checkpoint_s() const { return checkpoint_s_; }

 private:
  Stack* stack_;
  const std::vector<Observation>* stream_;
  size_t cursor_ = 0;
  int64_t acked_ = 0;
  std::vector<double> wal_us_, observe_us_, checkpoint_s_;
};

/// Closes the durable state, then reopens and recovers it kRecoverReps
/// times; checks that recovery accounts for exactly the acknowledged
/// writes with nothing repaired.
void RecoverAndCheck(Stack* stack, int64_t acked, Report* report) {
  const std::string dir = stack->recovery->dir();
  stack->recovery.reset();
  for (int rep = 0; rep < kRecoverReps; ++rep) {
    Span span("RecoveryManager::Recover", "io");
    const Clock::time_point start = Clock::now();
    auto manager = io::RecoveryManager::Open(dir);
    RVAR_CHECK(manager.ok()) << manager.status().ToString();
    auto recovered = manager->Recover();
    const double seconds = SecondsSince(start);
    RVAR_CHECK(recovered.ok()) << recovered.status().ToString();
    const io::RecoveryReport& r = *recovered;
    // Records the snapshot already covers (kWalStale) are skipped, not
    // repaired; every other reason is a repair.
    int64_t repairs = r.num_snapshots_discarded + r.wal_bytes_truncated;
    for (int i = 0; i < io::kNumRecoveryReasons; ++i) {
      if (static_cast<io::RecoveryReason>(i) != io::RecoveryReason::kWalStale) {
        repairs += r.counts[static_cast<size_t>(i)];
      }
    }
    int64_t tracked = 0;
    for (const auto& [gid, tracker] : manager->state().trackers) {
      tracked += tracker.count();
    }
    const int64_t tail = acked % kCheckpointEvery;
    const bool ok = repairs == 0 && tracked == acked &&
                    static_cast<int64_t>(manager->last_sequence()) == acked &&
                    r.wal_records_applied == tail;
    report->Check(StrCat("recover.accounts_for_acked_writes[", rep, "]"), ok,
                  StrCat("acked ", acked, ", recovered ", tracked,
                         ", replayed ", r.wal_records_applied, " (tail ", tail,
                         "), stale skipped ",
                         r.Count(io::RecoveryReason::kWalStale), ", repairs ",
                         repairs));
    report->Add("io.recover_s", "s", seconds);
    report->Add("io.recover_records_per_s", "records/s",
                static_cast<double>(r.wal_records_applied) / seconds);
  }
}

/// One retrain-and-swap, as RetrainAndSwap's two phases timed apart, then
/// a QuarantineLive that rolls serving back onto the parent, so every
/// candidate warm-starts from the same model and models do not grow over
/// the run.
Status Retrain(core::ModelLifecycle* lifecycle, const ml::Dataset& window,
               uint64_t begin, Report* report,
               std::shared_ptr<const ml::GbdtClassifier>* candidate) {
  const uint64_t end = begin + window.NumRows();
  const Clock::time_point start = Clock::now();
  Result<int64_t> version = [&] {
    Span span("ModelLifecycle::TrainCandidate", "core");
    return lifecycle->TrainCandidate(window, begin, end);
  }();
  const Clock::time_point trained = Clock::now();
  if (!version.ok()) return version.status();
  Status st;
  {
    Span span("ModelLifecycle::ValidateAndSwap", "core");
    st = lifecycle->ValidateAndSwap(*version, window);
  }
  report->Add("core.lifecycle_train_candidate_s", "s",
              SecondsBetween(start, trained));
  report->Add("core.lifecycle_validate_swap_s", "s", SecondsSince(trained));
  report->Add("retrain_s", "s", SecondsSince(start));
  if (!st.ok()) return st;
  *candidate = lifecycle->LiveModel();  // served until the roll-back
  Span span("ModelLifecycle::QuarantineLive", "core");
  return lifecycle->QuarantineLive("benchmark: roll back to the parent");
}

/// Snapshot of one obs histogram (Sum, Count), read through the registry.
std::pair<double, int64_t> HistogramTotals(const char* name) {
  Span span("obs::Registry::GetHistogram", "obs");
  obs::Histogram* h = obs::Registry::Default().GetHistogram(name);
  return {h->Sum(), h->Count()};
}

/// PredictShapeBatch's answer for every D3 run under one model epoch.
std::vector<int> EpochAnswers(const core::VariationPredictor& predictor,
                              const std::vector<sim::JobRun>& runs,
                              const ml::GbdtClassifier& model) {
  std::vector<const sim::JobRun*> all;
  for (const sim::JobRun& r : runs) all.push_back(&r);
  std::vector<int> shapes;
  std::vector<Status> status;
  RVAR_CHECK(predictor.PredictShapeBatchInto(model, all, &shapes, &status).ok());
  return shapes;
}

/// Retrains beside a traffic phase on their own thread: one retrain and
/// roll-back per Start, each on the next training window. Keeps the intervals they ran in (for the p99 of the
/// requests due meanwhile) and the candidate epochs they served.
class RetrainLog {
 public:
  RetrainLog(core::ModelLifecycle* lifecycle,
             const std::vector<ml::Dataset>* windows, Report* report)
      : lifecycle_(lifecycle), windows_(windows), report_(report) {}
  ~RetrainLog() { Join(); }
  RetrainLog(const RetrainLog&) = delete;
  RetrainLog& operator=(const RetrainLog&) = delete;

  /// Starts one retrain at `at` seconds after `start`.
  void Start(Clock::time_point start, double at) {
    Join();
    thread_ = std::thread([this, start, at] {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(at)));
      const ml::Dataset& window =
          (*windows_)[(attempted_ + 1) % windows_->size()];
      std::shared_ptr<const ml::GbdtClassifier> candidate;
      const Clock::time_point begin = Clock::now();
      const Status st =
          Retrain(lifecycle_, window,
                  static_cast<uint64_t>(attempted_ + 1) * window.NumRows(),
                  report_, &candidate);
      std::lock_guard<std::mutex> lock(mu_);
      intervals_.emplace_back(begin, Clock::now());
      ++attempted_;
      if (st.ok()) {
        candidates_.push_back(std::move(candidate));
      } else {
        ++failed_;
        std::fprintf(stderr, "retrain failed: %s\n", st.ToString().c_str());
      }
    });
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Joined only: the retrains' intervals and candidate epochs.
  const std::vector<std::pair<Clock::time_point, Clock::time_point>>&
  intervals() const {
    return intervals_;
  }
  const std::vector<std::shared_ptr<const ml::GbdtClassifier>>& candidates()
      const {
    return candidates_;
  }

  /// Accounts the retrains and checks that none failed.
  void Finish() {
    Join();
    report_->Account(attempted_, failed_);
    report_->Check("lifecycle.retrains_succeed", attempted_ > 0 && failed_ == 0,
                   StrCat(attempted_, " retrain-and-swaps, ", failed_,
                          " failed"));
  }

 private:
  core::ModelLifecycle* lifecycle_;
  const std::vector<ml::Dataset>* windows_;
  Report* report_;
  std::mutex mu_;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals_;
  std::vector<std::shared_ptr<const ml::GbdtClassifier>> candidates_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::thread thread_;  // last: joined before the members it uses go
};

/// Appends the latencies of the predictions due while a retrain ran.
void CollectDuringRetrains(const std::vector<Arrival>& schedule,
                           const PhaseResult& phase, Clock::time_point start,
                           const RetrainLog& retrains,
                           std::vector<double>* during) {
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].drift) continue;
    const Clock::time_point due =
        start + std::chrono::nanoseconds(schedule[i].due_ns);
    for (const auto& [begin, end] : retrains.intervals()) {
      if (due >= begin && due < end) {
        during->push_back(phase.outcomes[i].latency_us);
        break;
      }
    }
  }
}

/// Accounts a phase's predictions and checks every answer against the
/// oracle.
void CheckAnswers(const std::string& phase, const Summary& s,
                  Report* report) {
  report->Account(s.attempted, s.failed);
  report->Check(phase + ".full_answers_match_oracle", s.wrong == 0,
                StrCat(s.by_level[0], " full-model answers, ", s.wrong,
                       " differ"));
  const int64_t shed =
      std::accumulate(s.by_reason.begin(), s.by_reason.end(), int64_t{0});
  report->Check(phase + ".every_request_accounted",
                s.by_level[0] + s.by_level[1] + s.by_level[2] + shed ==
                    s.attempted,
                Accounting(s));
}

/// Adds the counts of `s` to `into` and appends its samples.
void Merge(const Summary& s, Summary* into) {
  into->attempted += s.attempted;
  into->failed += s.failed;
  into->late += s.late;
  into->wrong += s.wrong;
  for (size_t l = 0; l < s.by_level.size(); ++l) into->by_level[l] += s.by_level[l];
  for (size_t r = 0; r < s.by_reason.size(); ++r) {
    into->by_reason[r] += s.by_reason[r];
  }
  into->latency_us.insert(into->latency_us.end(), s.latency_us.begin(),
                          s.latency_us.end());
  into->late_us.insert(into->late_us.end(), s.late_us.begin(), s.late_us.end());
}

}  // namespace

void RunOnline(const RunOptions& options, const Pipeline& pipeline,
               const std::function<double()>& repeat_pipeline, Report* report) {
  const core::VariationPredictor& predictor = *pipeline.predictor;
  const std::vector<sim::JobRun>& runs = pipeline.suite.d3.telemetry.runs();
  const ServeSettings& cfg = options.serve;
  const bool is_mixed = options.workload == "mixed";
  const auto budget = FrontendOptionsFor(cfg).default_deadline;
  const double budget_us = 1e3 * static_cast<double>(budget.count());

  // Inputs: training windows for the lifecycle, the ingest history and the
  // write stream, all fixed before anything is timed.
  const ml::Dataset training = TrainingDataset(pipeline);
  std::vector<ml::Dataset> windows(4);
  for (size_t i = 0; i < training.NumRows(); ++i) {
    ml::Dataset& w = windows[i % windows.size()];
    w.x.push_back(training.x[i]);
    w.y.push_back(training.y[i]);
  }
  for (ml::Dataset& w : windows) w.feature_names = training.feature_names;
  const int num_clusters = predictor.shapes().num_clusters();
  bool windows_cover = true;
  for (const ml::Dataset& w : windows) {
    windows_cover = windows_cover && w.NumClasses() == num_clusters;
  }
  report->Check("lifecycle.windows_cover_all_shapes", windows_cover,
                StrCat(windows.size(), " windows of ~", windows[0].NumRows(),
                       " rows"));
  const std::vector<Observation> history =
      Observations(pipeline.suite.d2.telemetry, predictor);
  const std::vector<Observation> writes =
      Observations(pipeline.suite.d3.telemetry, predictor);
  const TrafficMix mix(pipeline.suite.d3.telemetry, cfg.zipf_s);
  std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ULL + 1);

  // --- Set-up: this stack serves the run; each round sets up another ----
  auto set_up = [&](int rep) {
    const Clock::time_point start = Clock::now();
    Stack stack = BringUp(options, pipeline, history, windows[0], is_mixed, rep);
    report->Add("setup_s", "s", SecondsSince(start));
    return stack;
  };
  Stack stack = set_up(0);

  // The oracle: serve scores against the trained predictor, so a full-model
  // answer must equal PredictShapeBatch's; in mixed it must equal the answer
  // of one of the epochs the lifecycle published.
  std::vector<std::vector<int>> epoch_answers;
  auto oracle = [&](int run, int shape) {
    for (const std::vector<int>& answers : epoch_answers) {
      if (answers[static_cast<size_t>(run)] == shape) return true;
    }
    return false;
  };
  epoch_answers.push_back(
      is_mixed ? EpochAnswers(predictor, runs, *stack.service->ModelSnapshot())
               : pipeline.d3_oracle);
  RetrainLog retrains(stack.lifecycle.get(), &windows, report);
  Writer writer(&stack, &writes, options.seed);

  // --- The measured seconds, as kRounds rounds ---------------------------
  // Each round repeats the study pipeline and the set-up (of a stack it
  // then drops), then serves one block of nominal open-loop traffic
  // (p50_us), one closed-loop capacity phase (capacity_rps) and one retrain
  // beside nominal traffic (retrain_s). In mixed, one durable writer runs
  // beside all three and the open-loop traffic carries drift queries; serve
  // writes alone after them (observe_per_s either way). Traced runs trace
  // the odd rounds only; the even rounds are the untraced baseline of the
  // tracing overhead.
  struct Phase {
    std::vector<Arrival> schedule;
    PhaseResult result;
  };
  std::vector<Phase> blocks, probes;
  std::vector<ClosedLoopResult> capacity;
  const double block_seconds = options.seconds / kRounds;
  const double drift_rps = is_mixed ? cfg.nominal_rps / 10.0 : 0.0;
  std::vector<double> study_traced, study_untraced, during_retrains;
  double wait_sum = 0.0, batch_sum = 0.0;
  int64_t wait_n = 0, batch_n = 0;
  for (int round = 0; round < kRounds; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    Tracer::Get().Enable(traced);
    (traced ? study_traced : study_untraced).push_back(repeat_pipeline());
    {
      const std::string dir = set_up(round + 1).dir;
      std::filesystem::remove_all(dir);
    }

    std::atomic<bool> stop{false};
    std::thread write_thread;
    if (is_mixed) {
      write_thread = std::thread([&] {
        writer.Run([&] { return stop.load(std::memory_order_acquire); },
                   /*to_tail=*/false, /*sample=*/true, report);
      });
    }

    Phase& block = blocks.emplace_back();
    block.schedule =
        MakeSchedule(mix, cfg.nominal_rps, drift_rps, block_seconds, &rng);
    const auto [wait_s0, wait_n0] = HistogramTotals("serve_queue_wait_seconds");
    const auto [batch_s0, batch_n0] = HistogramTotals("serve_batch_size");
    block.result =
        RunOpenLoop(stack.frontend.get(), *stack.service, runs, block.schedule,
                    budget, Clock::now() + std::chrono::milliseconds(5));
    const auto [wait_s1, wait_n1] = HistogramTotals("serve_queue_wait_seconds");
    const auto [batch_s1, batch_n1] = HistogramTotals("serve_batch_size");
    wait_sum += wait_s1 - wait_s0;
    wait_n += wait_n1 - wait_n0;
    batch_sum += batch_s1 - batch_s0;
    batch_n += batch_n1 - batch_n0;

    capacity.push_back(RunClosedLoop(stack.frontend.get(), runs, mix,
                                     cfg.capacity_window, kCapacitySeconds,
                                     budget, &rng));
    report->Add("capacity_rps", "req/s", capacity.back().answers_per_s);

    Phase& probe = probes.emplace_back();
    probe.schedule = MakeSchedule(mix, cfg.nominal_rps, drift_rps,
                                  kRetrainProbeSeconds, &rng);
    const Clock::time_point probe_start =
        Clock::now() + std::chrono::milliseconds(5);
    retrains.Start(probe_start, kRetrainAt);
    probe.result = RunOpenLoop(stack.frontend.get(), *stack.service, runs,
                               probe.schedule, budget, probe_start);
    retrains.Join();
    CollectDuringRetrains(probe.schedule, probe.result, probe_start, retrains,
                          &during_retrains);

    if (is_mixed) {
      stop.store(true, std::memory_order_release);
      write_thread.join();
    } else {
      const Clock::time_point until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kWriteSliceSeconds));
      writer.Run([&] { return Clock::now() >= until; }, /*to_tail=*/false,
                 /*sample=*/true, report);
    }
  }
  Tracer::Get().Enable(options.trace);
  // On to the recovery tail's boundary, with no traffic beside.
  writer.Run([] { return true; }, /*to_tail=*/true, /*sample=*/false, report);
  if (is_mixed) {
    for (const auto& candidate : retrains.candidates()) {
      epoch_answers.push_back(EpochAnswers(predictor, runs, *candidate));
    }
  }

  // --- Results: checks and accounting, then one sample per round ---------
  Summary nominal, closed_all, probe_all;
  std::vector<double> drift_us;
  std::vector<double> p50_traced, p50_untraced;
  int64_t fewest = std::numeric_limits<int64_t>::max();
  for (int round = 0; round < kRounds; ++round) {
    const Phase& block = blocks[static_cast<size_t>(round)];
    const Summary s = Summarize(block.schedule, block.result, budget_us, oracle);
    const double p50 = std::min(Quantile(s.latency_us, 0.50), budget_us);
    report->Add("p50_us", "us", p50);
    report->Add("serve.p99_us", "us",
                std::min(Quantile(s.latency_us, 0.99), budget_us));
    (options.trace && round % 2 == 1 ? p50_traced : p50_untraced)
        .push_back(p50);
    fewest = std::min(fewest, s.attempted);
    Merge(s, &nominal);
    drift_us.insert(drift_us.end(), block.result.drift_us.begin(),
                    block.result.drift_us.end());

    ClosedLoopResult& closed = capacity[static_cast<size_t>(round)];
    for (const auto& [run, shape] : closed.answers) {
      if (!oracle(run, shape)) ++closed.counts.wrong;
    }
    Merge(closed.counts, &closed_all);

    const Phase& probe = probes[static_cast<size_t>(round)];
    Merge(Summarize(probe.schedule, probe.result, budget_us, oracle),
          &probe_all);
    drift_us.insert(drift_us.end(), probe.result.drift_us.begin(),
                    probe.result.drift_us.end());
  }
  report->Check("serve.latency_samples", fewest >= kMinBlockRequests,
                StrCat(kRounds, " blocks of at least ", fewest,
                       " predictions"));
  std::printf("[nominal] %.0f req/s, %d x %.2fs: %s\n", cfg.nominal_rps,
              kRounds, block_seconds, Accounting(nominal).c_str());
  std::printf("[capacity] %d in flight, %d x %.2fs: %s\n",
              cfg.capacity_window, kRounds, kCapacitySeconds,
              Accounting(closed_all).c_str());
  std::printf("[retrain probes] %.0f req/s, %d x %.2fs: %s\n",
              cfg.nominal_rps, kRounds, kRetrainProbeSeconds,
              Accounting(probe_all).c_str());
  CheckAnswers("serve", nominal, report);
  CheckAnswers("capacity", closed_all, report);
  CheckAnswers("retrain_probe", probe_all, report);
  report->Info("serve.fail_frac",
               static_cast<double>(nominal.failed) / nominal.attempted);
  report->Info("serve.degraded_frac",
               static_cast<double>(nominal.by_level[1] + nominal.by_level[2]) /
                   nominal.attempted);
  report->Add("serve.generator_late_p99_us", "us",
              Quantile(nominal.late_us, 0.99));
  report->Add("serve.answers_full", "count",
              static_cast<double>(nominal.by_level[0]));
  if (wait_n > 0) {
    report->Add("serve.queue_wait_mean_us", "us",
                1e6 * wait_sum / static_cast<double>(wait_n));
  }
  if (batch_n > 0) {
    report->Add("serve.batch_size_mean", "requests",
                batch_sum / static_cast<double>(batch_n));
  }
  if (options.trace) {
    report->Add("obs.trace_overhead_p50", "x",
                Median(p50_traced) / Median(p50_untraced));
    report->Add("obs.trace_overhead_study", "x",
                Median(study_traced) / Median(study_untraced));
  }
  report->Check("serve.retrain_samples", during_retrains.size() >= 1000,
                StrCat(during_retrains.size(),
                       " requests due while a retrain ran"));
  report->Add("serve.retrain_p99_us", "us",
              std::min(Quantile(during_retrains, 0.99), budget_us));

  // --- Per-call probes, recovery ------------------------------------------
  if (!is_mixed) {
    for (int i = 0; i < kDriftProbeQueries; ++i) {
      const int gid = runs[static_cast<size_t>(mix.NextRun(&rng))].group_id;
      Span span("ShapeService::ProbabilityOf", "core");
      const Clock::time_point t0 = Clock::now();
      DriftQuery(*stack.service, gid, static_cast<size_t>(i));
      drift_us.push_back(1e6 * SecondsSince(t0));
    }
  }
  report->Account(static_cast<int64_t>(drift_us.size()), 0);
  retrains.Finish();
  AddCallQuantiles("core.drift_query", drift_us, report);
  AddCallQuantiles("io.wal_observe", writer.wal_us(), report);
  AddCallQuantiles("core.observe", writer.observe_us(), report);
  for (double s : writer.checkpoint_s()) report->Add("io.checkpoint_s", "s", s);
  RecoverAndCheck(&stack, writer.acked(), report);

  // --- Traced: the handoff floor, a front-end without a model -------------
  if (options.trace) {
    auto floor = serve::ServingFrontend::Make(stack.service.get(), nullptr,
                                              FrontendOptionsFor(cfg));
    RVAR_CHECK(floor.ok()) << floor.status().ToString();
    const std::vector<Arrival> schedule =
        MakeSchedule(mix, cfg.nominal_rps, 0.0, kHandoffSeconds, &rng);
    const PhaseResult r =
        RunOpenLoop(floor->get(), *stack.service, runs, schedule, budget,
                    Clock::now() + std::chrono::milliseconds(5));
    std::vector<double> latency;
    for (const Outcome& o : r.outcomes) latency.push_back(o.latency_us);
    report->Add("serve.handoff_p50_us", "us", Quantile(latency, 0.50));
    report->Add("serve.handoff_p99_us", "us", Quantile(latency, 0.99));
    (*floor)->Shutdown();
  }
  stack.frontend->Shutdown();
}

}  // namespace perfbench
}  // namespace rvar
