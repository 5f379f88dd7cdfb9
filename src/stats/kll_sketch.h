// Copyright 2026 The rvar Authors.
//
// A mergeable KLL quantile sketch (Karnin-Lang-Liberty) holding bounded
// per-group state in place of dense per-group PMFs (DESIGN.md §15). Items
// are stored as floats in a single flat buffer partitioned into weighted
// levels: an item at level h stands for 2^h original observations. When
// the buffer reaches its capacity bound the lowest over-full level is
// sorted and every other item is promoted one level up, halving the
// retained count while preserving total weight exactly.
//
// This implementation is deliberately *deterministic*: instead of the
// randomized odd/even pick of the original paper, each level carries a
// parity bit that flips on every compaction of that level. The sketch
// state is therefore a pure function of the update/merge sequence, which
// is what lets sharded ShapeService snapshots stay byte-identical at any
// shard count. The alternation also cancels the systematic rank bias a
// fixed pick would introduce, so the empirical rank error stays within
// the classic KLL bound (property-tested against the dense path).

#ifndef RVAR_STATS_KLL_SKETCH_H_
#define RVAR_STATS_KLL_SKETCH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "stats/histogram.h"

namespace rvar {

/// \brief Deterministic mergeable quantile sketch over float items.
///
/// `k` is the capacity of the top level; lower levels halve geometrically
/// (floor 8 items), so total retained state is < 2.5k items ≈ 2 KB at the
/// default k = 200. The sketch is *exact* — every observation retained at
/// weight 1 — until n reaches k, which covers typical per-group support in
/// the reference datasets; beyond that, rank queries degrade gracefully to
/// within NormalizedRankErrorBound(k).
class KllSketch {
 public:
  static constexpr int kMinK = 8;
  static constexpr int kMaxK = 1 << 16;
  /// The per-group default (ShapeService, RecoveryManager): ~2 KB bound.
  static constexpr int kDefaultK = 200;
  static constexpr int kMinLevelCapacity = 8;
  /// More levels than this cannot arise before n overflows int64.
  static constexpr int kMaxLevels = 56;

  /// Fails on k outside [kMinK, kMaxK].
  static Result<KllSketch> Make(int k);

  /// Incorporates one observation. NaN carries no rank information and is
  /// ignored; ±inf is accepted (it clips into the outlier bins, like
  /// BinGrid::BinIndex). Note the value is stored as a float.
  void Update(double x);

  /// Update with the OnlineShapeTracker clamp rule: NaN ignored,
  /// everything else clamped into [grid.lo(), grid.hi()]. Clamping never
  /// changes the target bin (BinIndex clips identically) but keeps
  /// retained items finite and quantiles inside the grid. Keeps n() equal
  /// to OnlineShapeTracker::count() for the same observation sequence.
  void UpdateClamped(const BinGrid& grid, double x);

  /// Merges `other` into this sketch; total weight adds exactly. The
  /// result is a deterministic function of (this state, other state,
  /// operand order) — callers needing reproducible aggregates merge in a
  /// fixed order. Fails if the sketches were built with different k.
  Status Merge(const KllSketch& other);

  /// Exact number of observations incorporated (NaN excluded).
  int64_t n() const { return n_; }
  bool empty() const { return n_ == 0; }
  int k() const { return k_; }
  /// True while every observation is still retained at weight 1; rank
  /// queries and bin counts are then exact (modulo double→float rounding).
  bool is_exact() const { return level_sizes_.size() == 1; }

  int num_levels() const { return static_cast<int>(level_sizes_.size()); }
  size_t num_retained() const { return items_.size(); }

  /// Smallest / largest value ever inserted (exact, tracked outside the
  /// compaction). +inf / -inf respectively while empty.
  float min_value() const { return min_; }
  float max_value() const { return max_; }

  /// Estimated number of observations strictly less than `t`.
  int64_t CountLess(double t) const;

  /// Estimated quantile q in [0, 1]; min/max at the extremes, 0 when
  /// empty. Returns an actually-inserted value (no interpolation).
  double Quantile(double q) const;

  /// Reconstructs weighted per-bin observation counts on `grid`, exactly
  /// mirroring BinGrid::BinIndex clipping. `counts` is resized to the
  /// grid and overwritten; entries sum to n(). In exact mode this equals
  /// the dense Histogram of the inserted values.
  void BinCountsInto(const BinGrid& grid, std::vector<double>* counts) const;

  /// Heap + inline footprint of this sketch in bytes. Buffer capacities
  /// are kept tight against the level-capacity bound, so this is ≤ ~2 KB
  /// at k = 200 regardless of n.
  size_t MemoryBytes() const;

  /// Normalized rank error bound ε(k): |est_rank - true_rank| ≤ ε·n. The
  /// standard single-sketch KLL constant (Apache DataSketches); the
  /// property suite verifies the deterministic variant stays inside it.
  static double NormalizedRankErrorBound(int k);

  // --- codec surface (io/serialize.h) -----------------------------------
  /// Retained items in storage order: highest level first, level 0 last.
  const std::vector<float>& items() const { return items_; }
  /// Retained item count per level, indexed by level (0 = weight 1).
  const std::vector<uint32_t>& level_sizes() const { return level_sizes_; }
  /// One pending-parity bit per level (bit h = level h's next pick).
  uint64_t compaction_parity() const { return parity_; }

  /// Rebuilds a sketch from codec fields, re-validating every structural
  /// invariant (level weights sum to n, items inside [min, max], no NaN,
  /// canonical level shape) so hostile bytes cannot produce a sketch that
  /// misbehaves later.
  static Result<KllSketch> Restore(int k, int64_t n, float min_value,
                                   float max_value,
                                   std::vector<uint32_t> level_sizes,
                                   std::vector<float> items, uint64_t parity);

 private:
  explicit KllSketch(int k);

  /// Offset of `level`'s first item in items_ (levels stored top-down).
  size_t LevelOffset(int level) const;
  /// Capacity of `level` when the sketch holds `num_levels` levels.
  int LevelCapacity(int level, int num_levels) const;
  size_t ComputeTotalCapacity() const;
  /// Sorts the lowest over-full level and promotes half of it one level
  /// up. Returns false if nothing could be compacted (defensive; cannot
  /// happen while the capacity invariant holds).
  bool CompactOnce();
  /// Reallocates buffers whose capacity drifted above the bound.
  void TightenCapacity();

  int k_;
  int64_t n_ = 0;
  float min_ = std::numeric_limits<float>::infinity();
  float max_ = -std::numeric_limits<float>::infinity();
  uint64_t parity_ = 0;
  size_t total_capacity_ = 0;  ///< cached sum of level capacities
  std::vector<uint32_t> level_sizes_;  ///< by level; level 0 = weight 1
  std::vector<float> items_;  ///< flat, highest level first
};

}  // namespace rvar

#endif  // RVAR_STATS_KLL_SKETCH_H_
