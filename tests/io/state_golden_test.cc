// Golden per-group state images: the FNV-1a hash of the recovery
// snapshot (PayloadKind::kServingState) and of the ShapeService image
// (PayloadKind::kShapeServiceState), for a fixed library and a fixed
// observation stream, pinned to constants. Both images carry the same
// per-group record (group id, counters, log-likelihood sums, KLL sketch),
// so a change that moves any serialized bit of either layout — the
// header, the nested library, a tracker sum or a sketch item — fails
// here. The stream sends one group past the default sketch k, so the
// pinned bytes cover compacted sketches as well as exact ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/normalization.h"
#include "core/shape_library.h"
#include "core/shape_service.h"
#include "io/recovery.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "sim/telemetry.h"
#include "unique_temp_dir.h"

namespace rvar {
namespace io {
namespace {

constexpr uint64_t kServingStateHash = 0xc181e3fc06024d23ULL;
constexpr uint64_t kShapeServiceStateHash = 0x3a8054efe3f7dc80ULL;

core::ShapeLibrary GoldenLibrary() {
  sim::TelemetryStore store;
  core::GroupMedians medians;
  Rng rng(41);
  for (int gid = 0; gid < 12; ++gid) {
    const double median = rng.Uniform(60.0, 400.0);
    const double sigma = gid % 3 == 0 ? 0.04 : (gid % 3 == 1 ? 0.45 : 0.2);
    for (int i = 0; i < 30; ++i) {
      sim::JobRun run;
      run.group_id = gid;
      run.runtime_seconds = median * std::max(0.1, rng.Normal(1.0, sigma));
      store.Add(run);
    }
    medians.Set(gid, median);
  }
  core::ShapeLibraryConfig config;
  config.num_clusters = 3;
  config.min_support = 10;
  auto library = core::ShapeLibrary::Build(store, medians, config);
  EXPECT_TRUE(library.ok()) << library.status().ToString();
  return *std::move(library);
}

struct Observation {
  int group_id;
  double value;
};

// 900 finite observations: every third goes to group 7 (300 > the default
// sketch k of 200, so its sketch compacts), the rest spread over groups
// 0..5. A few values fall outside the library grid on either side.
std::vector<Observation> GoldenStream() {
  std::vector<Observation> stream;
  Rng rng(43);
  for (int i = 0; i < 900; ++i) {
    const int gid = i % 3 == 0 ? 7 : static_cast<int>(rng.UniformInt(0, 5));
    double value = rng.LogNormal(0.0, 0.35);
    if (i % 97 == 0) value = 40.0;
    if (i % 89 == 0) value = 1e-3;
    stream.push_back({gid, value});
  }
  return stream;
}

TEST(StateGoldenTest, ServingStateSnapshotImage) {
  const UniqueTempDir dir;
  auto manager = RecoveryManager::Open(dir.str());
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  ASSERT_TRUE(manager->Bootstrap(GoldenLibrary()).ok());
  for (const Observation& obs : GoldenStream()) {
    ASSERT_TRUE(manager->Observe(obs.group_id, obs.value).ok());
  }
  ASSERT_TRUE(manager->Checkpoint().ok());
  auto image = ReadFileToString(manager->SnapshotPath(manager->generation()));
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(Fnv1a(*image), kServingStateHash)
      << "kServingState image hash 0x" << std::hex << Fnv1a(*image);
}

TEST(StateGoldenTest, ShapeServiceStateImage) {
  const core::ShapeLibrary library = GoldenLibrary();
  auto service = core::ShapeService::Make(&library);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (const Observation& obs : GoldenStream()) {
    ASSERT_TRUE((*service)->Observe(obs.group_id, obs.value).ok());
  }
  const std::string image = EncodeShapeServiceState(**service);
  EXPECT_EQ(Fnv1a(image), kShapeServiceStateHash)
      << "kShapeServiceState image hash 0x" << std::hex << Fnv1a(image);
}

}  // namespace
}  // namespace io
}  // namespace rvar
