// Copyright 2026 The rvar Authors.
//
// Request/response currency of the overload-resilient serving front-end
// (DESIGN.md §12). Every request carries a deadline budget and a priority
// tier; every response is labeled with what happened to it — served (and
// at which degradation level) or shed (and why) — so overload behavior is
// observable per-request, not just in aggregate counters.

#ifndef RVAR_SERVE_REQUEST_H_
#define RVAR_SERVE_REQUEST_H_

#include <chrono>

#include "sim/scheduler.h"

namespace rvar {
namespace serve {

/// \brief Shedding order under overload: higher tiers are shed first.
/// kInteractive is bounded only by queue capacity; kStandard and
/// kBestEffort additionally sit behind the token bucket and their
/// queue-depth watermarks.
enum class Priority : int {
  kInteractive = 0,  ///< user-facing, shed last
  kStandard = 1,     ///< normal traffic
  kBestEffort = 2,   ///< speculative / batch, shed first
};
inline constexpr int kNumPriorities = 3;
const char* PriorityName(Priority priority);

/// \brief How an answer was produced — the degradation ladder, best rung
/// first. A sick or mid-swap model moves responses *down* the ladder;
/// it never turns them into errors.
enum class DegradationLevel : int {
  kFullModel = 0,  ///< shard-local replica of the live classifier epoch
  kStaleModel = 1, ///< shard's pinned last-known-good epoch (breaker open)
  /// ShapeService::PriorShape, no model at all. Never-observed groups
  /// answer with ShapeLibrary::GlobalPriorShape().
  kPrior = 2,
};
inline constexpr int kNumDegradationLevels = 3;
const char* DegradationLevelName(DegradationLevel level);

/// \brief Why a request was shed instead of served.
enum class ShedReason : int {
  kNone = 0,       ///< not shed — the request was served
  kQueueFull = 1,  ///< bounded queue at capacity
  kWatermark = 2,  ///< queue depth above the tier's watermark
  kTokens = 3,     ///< token bucket empty (non-interactive tiers only)
  kDeadline = 4,   ///< deadline expired before the request was served
  kShutdown = 5,   ///< front-end stopped with the request still queued
  kInvalid = 6,    ///< malformed request (null run)
};
inline constexpr int kNumShedReasons = 7;
const char* ShedReasonName(ShedReason reason);

/// \brief One shape-prediction request. `run` must stay valid until the
/// response future resolves.
struct PredictRequest {
  const sim::JobRun* run = nullptr;
  Priority priority = Priority::kStandard;
  /// Absolute deadline; a default-constructed time_point means "apply the
  /// front-end's default budget at submit time".
  std::chrono::steady_clock::time_point deadline{};
};

/// \brief The labeled outcome of one request.
struct PredictResponse {
  /// kNone when served; otherwise the request was shed and `shape` is -1.
  ShedReason shed = ShedReason::kNone;
  /// Predicted (or degraded) shape. -1 only when shed: every served
  /// response carries a real cluster index, falling back to the library's
  /// global-prior argmax for groups nothing has ever observed.
  int shape = -1;
  /// Which ladder rung produced the answer; meaningful when served.
  DegradationLevel level = DegradationLevel::kFullModel;
  /// Submit-to-response wall clock, seconds.
  double latency_seconds = 0.0;

  bool served() const { return shed == ShedReason::kNone; }
};

}  // namespace serve
}  // namespace rvar

#endif  // RVAR_SERVE_REQUEST_H_
