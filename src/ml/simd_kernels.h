// Copyright 2026 The rvar Authors.
//
// SIMD kernel dispatch table for the ML hot paths (DESIGN.md §14): dense
// histogram accumulation (lane-partial and sequential-masked regimes),
// histogram subtraction spans, the split-gain scan, the BinColumns bin
// search, and the binned tree traversal. One function-pointer row
// per SimdLevel; the scalar row is compiled unconditionally and the
// vector rows are compiled only when CMake's RVAR_SIMD is on (x86-64).
//
// The table is the bit-identity contract: every row of a column must
// produce byte-identical outputs on identical inputs. That is possible
// because each kernel is either purely elementwise (subtraction, cell
// updates, the exact comparisons of the bin search and traversal) or
// has its reduction order fixed by definition — the lane histogram kernel
// is *specified* as four lane-local partial histograms (sample i lands in
// lane i mod 4) reduced per-cell as ((lane0+lane1)+lane2)+lane3, and the
// scalar reference implements exactly that, not a plain sequential sum;
// the split scan is specified as the sequential occupied-bin fold the
// scalar row performs, which the vector rows reproduce exactly (empty
// bins neither move the prefix sums nor produce candidates, and the
// strictly-greater running comparison is evaluated in bin order).

#ifndef RVAR_ML_SIMD_KERNELS_H_
#define RVAR_ML_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace rvar {
namespace ml {

/// Doubles per histogram bin: (grad, hess, count, pad). The pad keeps a
/// cell exactly one 256-bit lane wide, so an AVX2 row update is a single
/// load/add/store of {g, h, 1.0, 0.0}; pad cells are invariantly zero.
inline constexpr size_t kHistCellStride = 4;

/// Lane count of the lane-partial histogram contract (sample i goes to
/// partial i mod kHistLanes). Fixed by the reduction-order spec; not a
/// tuning knob.
inline constexpr size_t kHistLanes = 4;

/// Doubles of scratch the lane histogram kernel needs for a feature with
/// `nb` bins: kHistLanes partial histograms of kHistCellStride * nb cells.
inline constexpr size_t HistScratchDoubles(size_t nb) {
  return kHistLanes * kHistCellStride * nb;
}

/// SoA view of one trained tree for binned-column traversal (training-time
/// score updates). feature[i] == -1 marks a leaf; rows route left when
/// cols[feature[i]][row] <= split_bin[i]; leaf_value[i] is the scalar
/// leaf output (0.0 on internal nodes).
struct BinnedTreeView {
  const int32_t* feature;
  const uint8_t* split_bin;
  const int32_t* left;
  const int32_t* right;
  const double* leaf_value;
};

/// Winner of a split scan over one feature's histogram region. The score
/// is kept as the exact rational num/den (den > 0); `bin == -1` means no
/// bin passed the constraints. The sentinel (num, den) = (-1, 1) loses to
/// any real candidate under the cross-multiplied strictly-greater compare.
struct SplitScanResult {
  double num = -1.0;
  double den = 1.0;
  double left_g = 0.0;
  double left_h = 0.0;
  int32_t bin = -1;
};

/// One dispatch row. All rows are bit-identical in output; they differ
/// only in instruction selection and (for the traversal) how many rows
/// are walked in flight.
struct SimdKernels {
  /// Lane-partial histogram accumulation for large nodes. Overwrites the
  /// whole `region` (kHistCellStride * nb doubles) with the lane-partial
  /// histogram of idx[0, n): sample i adds (gh[2*idx[i]], gh[2*idx[i]+1],
  /// 1.0) into bin col[idx[i]] of lane partial i mod kHistLanes, and each
  /// cell reduces as ((lane0 + lane1) + lane2) + lane3. `scratch` must
  /// hold HistScratchDoubles(nb) doubles (contents ignored on entry).
  void (*hist_accumulate)(const size_t* idx, size_t n, const uint8_t* col,
                          const double* gh, size_t nb, double* region,
                          double* scratch);

  /// Sequential masked accumulation for small/mid nodes: adds sample i's
  /// (g, h, 1.0) into bin b = col[idx[i]] of `region` in index order (no
  /// lanes, no clearing — the caller clears via the occupancy mask) and
  /// sets mask[b >> 6] bit (b & 63) per touched bin. Cell updates are
  /// elementwise in a fixed sequential order, so every row is exact.
  void (*hist_accumulate_masked)(const size_t* idx, size_t n,
                                 const uint8_t* col, const double* gh,
                                 double* region, uint64_t* mask);

  /// a[i] -= b[i] for i in [0, n). Elementwise, so exact at any width.
  void (*sub_span)(double* a, const double* b, size_t n);

  /// Best split over one feature's histogram `region` under the XGBoost
  /// rational-score comparison. Occupied bins are visited in ascending
  /// order over [0, last); each advances the prefix sums (gl, hl, nl) by
  /// its cell and, if it passes the constraints (nl/nr >= min_leaf,
  /// hl/hr >= min_child_weight), forms the candidate
  ///   num = gl^2*(hr+lambda) + gr^2*(hl+lambda),
  ///   den = (hl+lambda)*(hr+lambda)
  /// which replaces the running best iff num*best.den > best.num*den
  /// (strictly greater: the lowest bin wins ties). Empty bins (count ==
  /// 0.0, possible inside a derived mask) neither advance the prefix nor
  /// produce candidates. The prefix association is defined blockwise,
  /// four bins at a time, as the shift-scan of the gated values
  /// x = (bin < last && count != 0) ? cell : 0.0 (lane equations in
  /// SplitScanScalar); a block whose four bins are all gated out is
  /// skipped whole. The mask enters only as a prefilter — a block with
  /// no set mask bits is skipped without loading cells, which is exactly
  /// the defined all-empty skip because unmasked cells are exact zeros
  /// by the pool invariant. The association therefore never depends on
  /// the mask contents, n_rows, or the SIMD level, so a derived
  /// histogram (ancestor's superset mask) and a direct build of the
  /// same node compute identical candidates and identical bits, at
  /// every level.
  void (*split_scan)(const double* region, const uint64_t* mask,
                     size_t mask_words, size_t last, double n_rows,
                     double node_g, double node_h, double lambda,
                     double min_leaf, double min_child_weight,
                     SplitScanResult* out);

  /// out[i] = std::lower_bound(edges, edges + ne, values[i]) - edges for
  /// i in [0, n); requires 1 <= ne <= 255. Comparisons are the ordered
  /// `<`, so NaN maps to bin 0 and +inf past the last edge, exactly like
  /// FeatureBinner::Bin.
  void (*lower_bound_u8)(const double* edges, size_t ne, const double* values,
                         size_t n, uint8_t* out);

  /// For each row r in [begin, end): traverses `tree` by bin comparison
  /// over the per-feature column pointers and adds the reached leaf value
  /// into out[r * out_stride]. Rows are independent — one add per row —
  /// so any traversal blocking gives bit-identical results.
  void (*binned_accumulate)(const BinnedTreeView& tree,
                            const uint8_t* const* cols, size_t begin,
                            size_t end, double* out, size_t out_stride);
};

/// Dispatch rows indexed by SimdLevel. Rows above MaxSupportedSimdLevel()
/// exist (they alias scalar when RVAR_SIMD is off) but must not be called
/// above the supported level.
extern const SimdKernels kSimdKernels[kNumSimdLevels];

/// The row for ActiveSimdLevel().
inline const SimdKernels& ActiveSimdKernels() {
  return kSimdKernels[static_cast<int>(ActiveSimdLevel())];
}

namespace detail {

// Reference scalar implementations, exported so the vector TUs and the
// equivalence tests can name them directly.
void HistAccumulateScalar(const size_t* idx, size_t n, const uint8_t* col,
                          const double* gh, size_t nb, double* region,
                          double* scratch);
void HistAccumulateMaskedScalar(const size_t* idx, size_t n,
                                const uint8_t* col, const double* gh,
                                double* region, uint64_t* mask);
void SubSpanScalar(double* a, const double* b, size_t n);
void SplitScanScalar(const double* region, const uint64_t* mask,
                     size_t mask_words, size_t last, double n_rows,
                     double node_g, double node_h, double lambda,
                     double min_leaf, double min_child_weight,
                     SplitScanResult* out);
void LowerBoundU8Scalar(const double* edges, size_t ne, const double* values,
                        size_t n, uint8_t* out);
void BinnedAccumulateScalar(const BinnedTreeView& tree,
                            const uint8_t* const* cols, size_t begin,
                            size_t end, double* out, size_t out_stride);

// Four-rows-in-flight binned traversal: no special instructions, but
// breaking the per-node dependency chain across rows is where batch
// traversal time goes, so the sse42/avx2 rows share it. Parked lanes
// (already at a leaf) re-load their leaf through a guarded index until
// the block drains.
void BinnedAccumulateIlp(const BinnedTreeView& tree,
                         const uint8_t* const* cols, size_t begin, size_t end,
                         double* out, size_t out_stride);

#if defined(RVAR_SIMD_X86)
void HistAccumulateSse42(const size_t* idx, size_t n, const uint8_t* col,
                         const double* gh, size_t nb, double* region,
                         double* scratch);
void HistAccumulateMaskedSse42(const size_t* idx, size_t n,
                               const uint8_t* col, const double* gh,
                               double* region, uint64_t* mask);
void SubSpanSse42(double* a, const double* b, size_t n);
void HistAccumulateAvx2(const size_t* idx, size_t n, const uint8_t* col,
                        const double* gh, size_t nb, double* region,
                        double* scratch);
// No AVX2 masked-hist variant: the update is a 16-byte (g, h) pair add plus
// a scalar count bump, and widening it to one 32-byte RMW straddles cache
// lines (cells are 32-byte stride but only 16-byte aligned), measuring
// slower than the SSE4.2 pair add. The avx2 dispatch row reuses
// HistAccumulateMaskedSse42.
void SubSpanAvx2(double* a, const double* b, size_t n);
void SplitScanAvx2(const double* region, const uint64_t* mask,
                   size_t mask_words, size_t last, double n_rows,
                   double node_g, double node_h, double lambda,
                   double min_leaf, double min_child_weight,
                   SplitScanResult* out);
void LowerBoundU8Avx2(const double* edges, size_t ne, const double* values,
                      size_t n, uint8_t* out);
#endif  // RVAR_SIMD_X86

}  // namespace detail
}  // namespace ml
}  // namespace rvar

#endif  // RVAR_ML_SIMD_KERNELS_H_
