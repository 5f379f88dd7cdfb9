// Error-path coverage: every Status factory, Result<T> move semantics,
// and error propagation through the core pipeline's entry points.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/assigner.h"
#include "core/online.h"
#include "core/shape_library.h"
#include "sim/telemetry.h"

namespace rvar {
namespace {

TEST(StatusFactoryTest, EveryFactoryMapsToItsCode) {
  const std::pair<Status, StatusCode> cases[] = {
      {Status::OK(), StatusCode::kOk},
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument},
      {Status::NotFound("m"), StatusCode::kNotFound},
      {Status::OutOfRange("m"), StatusCode::kOutOfRange},
      {Status::FailedPrecondition("m"), StatusCode::kFailedPrecondition},
      {Status::AlreadyExists("m"), StatusCode::kAlreadyExists},
      {Status::ResourceExhausted("m"), StatusCode::kResourceExhausted},
      {Status::Internal("m"), StatusCode::kInternal},
      {Status::Unimplemented("m"), StatusCode::kUnimplemented},
      {Status::IOError("m"), StatusCode::kIOError},
  };
  for (const auto& [status, code] : cases) {
    EXPECT_EQ(status.code(), code);
    EXPECT_EQ(status.ok(), code == StatusCode::kOk);
    if (!status.ok()) {
      EXPECT_EQ(status.message(), "m");
      const std::string rendered = status.ToString();
      EXPECT_NE(rendered.find(StatusCodeToString(code)), std::string::npos);
      EXPECT_NE(rendered.find(": m"), std::string::npos);
    }
  }
}

TEST(StatusFactoryTest, PredicatesMatchOnlyTheirCode) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_FALSE(Status::InvalidArgument("x").IsNotFound());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_FALSE(Status::OK().IsInternal());
}

TEST(ResultMoveTest, MoveOnlyValueRoundTrips) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  // Lvalue access does not consume the value.
  EXPECT_EQ(**r, 5);
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 5);
}

TEST(ResultMoveTest, MoveConstructionPreservesState) {
  Result<std::vector<int>> ok(std::vector<int>{1, 2, 3});
  Result<std::vector<int>> moved = std::move(ok);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->size(), 3u);

  Result<std::vector<int>> err(Status::NotFound("gone"));
  Result<std::vector<int>> moved_err = std::move(err);
  ASSERT_FALSE(moved_err.ok());
  EXPECT_TRUE(moved_err.status().IsNotFound());
  EXPECT_EQ(moved_err.status().message(), "gone");
}

Result<std::unique_ptr<int>> MakeBox(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return std::make_unique<int>(x);
}

Result<int> UnboxDoubled(int x) {
  RVAR_ASSIGN_OR_RETURN(std::unique_ptr<int> box, MakeBox(x));
  return 2 * *box;
}

TEST(ResultMoveTest, AssignOrReturnMovesThrough) {
  Result<int> ok = UnboxDoubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_TRUE(UnboxDoubled(-1).status().IsInvalidArgument());
}

TEST(OnlineTrackerErrorTest, MakeRejectsNullLibrary) {
  auto tracker = core::OnlineShapeTracker::Make(nullptr);
  ASSERT_FALSE(tracker.ok());
  EXPECT_TRUE(tracker.status().IsInvalidArgument());
}

TEST(OnlineTrackerErrorTest, FreshTrackerAndAssignerErrorPaths) {
  // Build a minimal real library to isolate the error paths.
  sim::TelemetryStore store;
  for (int g = 0; g < 2; ++g) {
    for (int64_t i = 0; i < 30; ++i) {
      sim::JobRun run;
      run.group_id = g;
      run.instance_id = i;
      run.runtime_seconds = 100.0 + 10.0 * g + static_cast<double>(i % 7);
      store.Add(run);
    }
  }
  const core::GroupMedians medians = core::GroupMedians::FromTelemetry(store);
  core::ShapeLibraryConfig sc;
  sc.num_clusters = 2;
  sc.min_support = 20;
  sc.kmeans.num_restarts = 2;
  auto library = core::ShapeLibrary::Build(store, medians, sc);
  ASSERT_TRUE(library.ok()) << library.status().ToString();

  EXPECT_TRUE(core::OnlineShapeTracker::Make(&*library, nullptr)
                  .status()
                  .IsInvalidArgument());
  // And the happy path works on the same library.
  auto tracker = core::OnlineShapeTracker::Make(&*library);
  ASSERT_TRUE(tracker.ok());
  // No observations yet: a uniform drift score over real clusters.
  EXPECT_EQ(tracker->ProbabilityOf(0), 0.5);
  EXPECT_EQ(tracker->ProbabilityOf(1), 0.5);

  // Assigner error paths on the same library.
  core::PosteriorAssigner assigner(&*library);
  EXPECT_TRUE(assigner.LogLikelihoods({}).status().IsInvalidArgument());
  EXPECT_TRUE(assigner
                  .LogLikelihoods({std::nan(""), std::nan("")})
                  .status()
                  .IsInvalidArgument());
  auto lls = assigner.LogLikelihoods({1.0, std::nan("")});
  ASSERT_TRUE(lls.ok());  // one finite observation is enough
  EXPECT_EQ(lls->size(), 2u);
}

TEST(OnlineTrackerErrorTest, BuildFailsOnEmptyTelemetry) {
  // An empty store yields no qualifying groups; Build reports why instead
  // of crashing, and the error propagates through RVAR_ASSIGN_OR_RETURN.
  sim::TelemetryStore empty;
  const core::GroupMedians medians =
      core::GroupMedians::FromTelemetry(empty);
  core::ShapeLibraryConfig sc;
  sc.num_clusters = 2;
  auto library = core::ShapeLibrary::Build(empty, medians, sc);
  ASSERT_FALSE(library.ok());
  EXPECT_TRUE(library.status().IsFailedPrecondition());

  const auto chain = [&]() -> Result<int> {
    RVAR_ASSIGN_OR_RETURN(core::ShapeLibrary lib,
                          core::ShapeLibrary::Build(empty, medians, sc));
    return lib.num_clusters();
  };
  EXPECT_TRUE(chain().status().IsFailedPrecondition());
}

}  // namespace
}  // namespace rvar
