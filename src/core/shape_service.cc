#include "core/shape_service.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/strings.h"

namespace rvar {
namespace core {

ShapeService::ShapeService(const ShapeLibrary* library, Options options,
                           std::shared_ptr<const ClusterLogPmf> log_pmf)
    : library_(library),
      options_(options),
      log_pmf_(std::move(log_pmf)),
      num_shards_(static_cast<size_t>(std::max(1, options.num_shards))) {
  options_.num_shards = static_cast<int>(num_shards_);
  shards_ = std::make_unique<Shard[]>(num_shards_);
  obs::Registry& registry = obs::Registry::Default();
  observe_latency_ =
      registry.GetHistogram("shape_service_observe_latency_seconds");
  query_latency_ =
      registry.GetHistogram("shape_service_query_latency_seconds");
  observe_total_ = registry.GetCounter("shape_service_observe_total");
  observe_rejected_ = registry.GetCounter("shape_service_observe_rejected");
  model_swaps_total_ = registry.GetCounter("shape_service_model_swaps_total");
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s].observe_total = registry.GetCounter(
        "shape_service_shard_observe_total", "shard", StrCat(s));
    shards_[s].contention = registry.GetCounter(
        "shape_service_shard_contention_total", "shard", StrCat(s));
  }
}

Result<std::unique_ptr<ShapeService>> ShapeService::Make(
    const ShapeLibrary* library, Options options) {
  if (library == nullptr) {
    return Status::InvalidArgument("null shape library");
  }
  if (library->num_clusters() < 1) {
    return Status::InvalidArgument("shape library holds no clusters");
  }
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        StrCat("ShapeService options.num_shards must be >= 1, got ",
               options.num_shards));
  }
  // Build the shared log theta table once; every per-group tracker (and
  // the Eq. 9 prior scorer) reference it instead of holding a copy, so
  // per-group creation inside Observe can never fail.
  return std::unique_ptr<ShapeService>(new ShapeService(
      library, options, ClusterLogPmf::MakeShared(*library)));
}

size_t ShapeService::ShardIndexFor(int group_id) const {
  // Spread consecutive group ids across shards; the multiplicative mix
  // avoids pinning id ranges (gid % shards would shard-collide every
  // `num_shards`-th group of a sequential id space onto one shard).
  const uint64_t h =
      static_cast<uint64_t>(group_id) * 0x9E3779B97F4A7C15ULL;
  return (h >> 32) % num_shards_;
}

ShapeService::Shard& ShapeService::ShardFor(int group_id) const {
  return shards_[ShardIndexFor(group_id)];
}

std::unique_lock<std::mutex> ShapeService::LockShard(
    size_t shard_index) const {
  std::unique_lock<std::mutex> lock(shards_[shard_index].mu,
                                    std::try_to_lock);
  if (!lock.owns_lock()) {
    shards_[shard_index].contention->Increment();
    lock.lock();
  }
  return lock;
}

Status ShapeService::Observe(int group_id, double normalized_runtime) {
  obs::ScopedLatencyTimer timer(observe_latency_);
  if (Status bad = CheckObservation(group_id, normalized_runtime);
      !bad.ok()) {
    observe_rejected_->Increment();
    return bad;
  }
  observe_total_->Increment();
  const size_t shard_index = ShardIndexFor(group_id);
  Shard& shard = shards_[shard_index];
  shard.observe_total->Increment();
  std::unique_lock<std::mutex> lock = LockShard(shard_index);
  auto it = shard.groups.find(group_id);
  if (it == shard.groups.end()) {
    it = shard.groups
             .emplace(group_id,
                      GroupEntry{*OnlineShapeTracker::Make(library_, log_pmf_)})
             .first;
  }
  GroupEntry& entry = it->second;
  entry.tracker.Observe(normalized_runtime);
  entry.prior_shape = -1;  // the next PriorShape rescores the sketch
  ++shard.total_observations;
  return Status::OK();
}

int ShapeService::PriorShape(int group_id) const {
  obs::ScopedLatencyTimer timer(query_latency_);
  const size_t shard_index = ShardIndexFor(group_id);
  Shard& shard = shards_[shard_index];
  std::unique_lock<std::mutex> lock = LockShard(shard_index);
  const auto it = shard.groups.find(group_id);
  if (it == shard.groups.end() || it->second.tracker.count() == 0) {
    return library_->GlobalPriorShape();
  }
  GroupEntry& entry = it->second;
  if (entry.prior_shape < 0) {
    // Equation 9 over the reconstructed counts: argmax_c sum_h n_h log
    // theta_h^c. With an exact-mode sketch (n < k) the counts are the
    // same tallies the tracker's running sums accumulated one observation
    // at a time.
    // Reused per thread: allocating the buffer on every miss showed up
    // in perfbench's core.drift_query_p99_us.
    thread_local std::vector<double> counts;
    entry.tracker.sketch().BinCountsInto(library_->grid(), &counts);
    int best = 0;
    double best_ll = -std::numeric_limits<double>::infinity();
    for (int c = 0; c < log_pmf_->num_clusters(); ++c) {
      const double ll = log_pmf_->Dot(c, counts);
      if (ll > best_ll) {
        best_ll = ll;
        best = c;
      }
    }
    entry.prior_shape = best;
  }
  return entry.prior_shape;
}

bool ShapeService::ReconstructPmf(int group_id,
                                  std::vector<double>* pmf) const {
  RVAR_CHECK(pmf != nullptr);
  const size_t shard_index = ShardIndexFor(group_id);
  Shard& shard = shards_[shard_index];
  std::unique_lock<std::mutex> lock = LockShard(shard_index);
  const auto it = shard.groups.find(group_id);
  if (it == shard.groups.end() || it->second.tracker.count() == 0) {
    pmf->clear();
    return false;
  }
  it->second.tracker.sketch().BinCountsInto(library_->grid(), pmf);
  lock.unlock();
  // Normalize + smooth outside the lock: the counts are ours now.
  ShapeLibrary::FinishObservationPmfInPlace(
      pmf, library_->config().smoothing_radius);
  return true;
}

double ShapeService::ProbabilityOf(int group_id, int cluster) const {
  RVAR_CHECK(cluster >= 0 && cluster < library_->num_clusters());
  const size_t shard_index = ShardIndexFor(group_id);
  Shard& shard = shards_[shard_index];
  std::unique_lock<std::mutex> lock = LockShard(shard_index);
  const auto it = shard.groups.find(group_id);
  if (it == shard.groups.end()) {
    return 1.0 / static_cast<double>(library_->num_clusters());
  }
  return it->second.tracker.ProbabilityOf(cluster);
}

int64_t ShapeService::GroupCount(int group_id) const {
  const size_t shard_index = ShardIndexFor(group_id);
  Shard& shard = shards_[shard_index];
  std::unique_lock<std::mutex> lock = LockShard(shard_index);
  const auto it = shard.groups.find(group_id);
  return it == shard.groups.end() ? 0 : it->second.tracker.count();
}

int64_t ShapeService::TotalObservations() const {
  // Per-shard snapshot merged in shard-index order. Each shard maintains
  // its running total under its own mutex, so this is O(shards), not
  // O(groups) — and a maintenance read, so no contention counting.
  int64_t total = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    total += shards_[s].total_observations;
  }
  return total;
}

size_t ShapeService::NumGroups() const {
  size_t total = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    total += shards_[s].groups.size();
  }
  return total;
}

std::vector<int> ShapeService::TrackedGroups() const {
  std::vector<int> groups;
  for (size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    for (const auto& [gid, entry] : shards_[s].groups) {
      groups.push_back(gid);
    }
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

bool ShapeService::Forget(int group_id) {
  const size_t shard_index = ShardIndexFor(group_id);
  Shard& shard = shards_[shard_index];
  std::unique_lock<std::mutex> lock = LockShard(shard_index);
  const auto it = shard.groups.find(group_id);
  if (it == shard.groups.end()) return false;
  shard.total_observations -= it->second.tracker.count();
  shard.groups.erase(it);
  return true;
}

void ShapeService::SwapModel(
    std::shared_ptr<const ml::GbdtClassifier> model) {
  // Global slot first, then every shard's replica in shard-index order —
  // all plain atomic stores, no lock. Readers pinned to an old epoch keep
  // it alive through their shared_ptr; shard replicas may briefly trail
  // the global slot, but each shard-local batch still sees one epoch.
  std::atomic_store(&model_, model);
  for (size_t s = 0; s < num_shards_; ++s) {
    std::atomic_store(&shards_[s].model, model);
  }
  model_swaps_total_->Increment();
}

std::shared_ptr<const ml::GbdtClassifier> ShapeService::ModelSnapshot()
    const {
  return std::atomic_load(&model_);
}

std::shared_ptr<const ml::GbdtClassifier> ShapeService::ModelSnapshotForShard(
    size_t shard_index) const {
  RVAR_CHECK(shard_index < num_shards_);
  return std::atomic_load(&shards_[shard_index].model);
}

std::vector<GroupState> ShapeService::ExportState() const {
  // Lock every shard (in index order, the only order used) so the export
  // is a point-in-time cut: no concurrent Observe lands halfway. Plain
  // locks — maintenance traffic must not pollute the contention counters
  // that size the serving hot path.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    locks.emplace_back(shards_[s].mu);
  }
  // Per-shard snapshots merged in shard-index order, then sorted by group
  // id: group ids are unique, so the result — and the serialized image
  // built from it — is byte-identical at any shard count. The sketches
  // themselves are shard-count independent too: each is a deterministic
  // function of its group's observation sequence alone.
  std::vector<GroupState> states;
  for (size_t s = 0; s < num_shards_; ++s) {
    for (const auto& [gid, entry] : shards_[s].groups) {
      states.push_back(entry.tracker.ExportState(gid));
    }
  }
  std::sort(states.begin(), states.end(),
            [](const GroupState& a, const GroupState& b) {
              return a.group_id < b.group_id;
            });
  return states;
}

Status ShapeService::RestoreState(const std::vector<GroupState>& states) {
  // Validate and build every group before touching the live shards, so a
  // corrupt entry leaves the service exactly as it was.
  std::vector<std::pair<int, GroupEntry>> restored;
  restored.reserve(states.size());
  for (const GroupState& state : states) {
    if (state.group_id < 0) {
      return Status::InvalidArgument(
          StrCat("restored group_id must be >= 0, got ", state.group_id));
    }
    RVAR_ASSIGN_OR_RETURN(OnlineShapeTracker tracker,
                          OnlineShapeTracker::Make(library_, log_pmf_));
    RVAR_RETURN_NOT_OK(tracker.RestoreState(state));
    restored.emplace_back(state.group_id, GroupEntry{std::move(tracker)});
  }
  for (size_t i = 1; i < restored.size(); ++i) {
    if (restored[i].first <= restored[i - 1].first) {
      return Status::InvalidArgument(
          "restored group states must be strictly ascending by group id");
    }
  }
  // Plain locks in shard-index order: maintenance traffic stays out of
  // the contention counters.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    locks.emplace_back(shards_[s].mu);
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s].groups.clear();
    shards_[s].total_observations = 0;
  }
  for (auto& [gid, entry] : restored) {
    Shard& shard = shards_[ShardIndexFor(gid)];
    shard.total_observations += entry.tracker.count();
    shard.groups.emplace(gid, std::move(entry));
  }
  return Status::OK();
}

}  // namespace core
}  // namespace rvar
