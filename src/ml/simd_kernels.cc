#include "ml/simd_kernels.h"

#include <algorithm>
#include <bit>

namespace rvar {
namespace ml {
namespace detail {

void HistAccumulateScalar(const size_t* idx, size_t n, const uint8_t* col,
                          const double* gh, size_t nb, double* region,
                          double* scratch) {
  static_assert(kHistLanes == 4, "lane mapping below is i & 3");
  const size_t pw = kHistCellStride * nb;  // doubles per lane partial
  std::fill(scratch, scratch + kHistLanes * pw, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = idx[i];
    double* cell =
        scratch + (i & 3) * pw + kHistCellStride * static_cast<size_t>(col[row]);
    cell[0] += gh[2 * row];
    cell[1] += gh[2 * row + 1];
    cell[2] += 1.0;
  }
  const double* l0 = scratch;
  const double* l1 = scratch + pw;
  const double* l2 = scratch + 2 * pw;
  const double* l3 = scratch + 3 * pw;
  for (size_t c = 0; c < pw; ++c) {
    region[c] = ((l0[c] + l1[c]) + l2[c]) + l3[c];
  }
}

void HistAccumulateMaskedScalar(const size_t* idx, size_t n,
                                const uint8_t* col, const double* gh,
                                double* region, uint64_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    const size_t row = idx[i];
    const size_t b = col[row];
    double* cell = region + kHistCellStride * b;
    cell[0] += gh[2 * row];
    cell[1] += gh[2 * row + 1];
    cell[2] += 1.0;
    mask[b >> 6] |= uint64_t{1} << (b & 63);
  }
}

void SubSpanScalar(double* a, const double* b, size_t n) {
  for (size_t i = 0; i < n; ++i) a[i] -= b[i];
}

void SplitScanScalar(const double* region, const uint64_t* mask,
                     size_t mask_words, size_t last, double n_rows,
                     double node_g, double node_h, double lambda,
                     double min_leaf, double min_child_weight,
                     SplitScanResult* out) {
  SplitScanResult local;
  double gl = 0.0, hl = 0.0;
  double nl = 0.0;  // exact: integer counts in double
  // Candidate evaluation against the running best, given bin b's prefix
  // sums. Shared by both prefix regimes below; the comparison fold (bin
  // order, strictly greater) is the same everywhere.
  const auto consider = [&](size_t b, double glb, double hlb, double nlb) {
    const double nr = n_rows - nlb;
    if (nlb < min_leaf || nr < min_leaf) return;
    const double hr = node_h - hlb;
    if (hlb < min_child_weight || hr < min_child_weight) return;
    const double gr = node_g - glb;
    const double bl = hlb + lambda;
    const double br = hr + lambda;
    const double num = (glb * glb) * br + (gr * gr) * bl;
    const double den = bl * br;
    if (num * local.den > local.num * den) {
      local.num = num;
      local.den = den;
      local.bin = static_cast<int32_t>(b);
      local.left_g = glb;
      local.left_h = hlb;
    }
  };
  // The prefix is computed blockwise, four bins at a time, over every
  // word with any set bit. Per block [x0..x3] of gated cell values
  //   x = (bin < last && count != 0) ? cell : 0.0
  // the defined association is the two-step shift-scan
  //   y_i = x_i + x_{i-1}          (x_{-1} = 0; y_0 = x_0 untouched)
  //   z_i = y_i + y_{i-2}          (z_0 = y_0, z_1 = y_1 untouched)
  //   p_i = z_i + carry,   carry' = p_3
  // — not the serial chain — because a 4-lane vector row computes it with
  // two shifted adds; this reference performs the identical adds
  // (including the +0.0 of empty bins), so every level produces the same
  // bits. Gated-out bins never produce a candidate, and a block whose
  // four bins are all gated out is skipped whole (defined skip — the
  // carry and candidate state are untouched, so a -0.0 carry is never
  // flushed to +0.0 by an all-zero add).
  //
  // The walk consults the mask only as a prefilter: a block none of whose
  // mask bits are set is skipped without loading cells. That skip is
  // exactly the defined all-empty skip (unmasked cells are exact zeros by
  // the pool invariant), so the result never depends on whether the mask
  // is the node's exact occupancy or an ancestor's superset — a derived
  // (subtraction) histogram and a direct build of the same node walk
  // different masks but compute identical candidates, associations, and
  // therefore bits, at every SIMD level.
  for (size_t w = 0; w < mask_words; ++w) {
    const uint64_t bits = mask[w];
    if (bits == 0) continue;
    const size_t base = w * 64;
    if (base >= last) break;
    for (size_t s = 0; s < 64; s += 4) {
      if (((bits >> s) & uint64_t{0xF}) == 0) continue;
      const size_t blk = base + s;
      if (blk >= last) break;
      double x[3][4];  // [g,h,n][lane], gate-zeroed
      bool any = false;
      for (size_t j = 0; j < 4; ++j) {
        const double* cell = region + kHistCellStride * (blk + j);
        const bool occ = blk + j < last && cell[2] != 0.0;
        any = any || occ;
        x[0][j] = occ ? cell[0] : 0.0;
        x[1][j] = occ ? cell[1] : 0.0;
        x[2][j] = occ ? cell[2] : 0.0;
      }
      if (!any) continue;
      double p[3][4];
      const double carry[3] = {gl, hl, nl};
      for (int a = 0; a < 3; ++a) {
        const double y1 = x[a][1] + x[a][0];
        const double y2 = x[a][2] + x[a][1];
        const double y3 = x[a][3] + x[a][2];
        const double z2 = y2 + x[a][0];
        const double z3 = y3 + y1;
        p[a][0] = x[a][0] + carry[a];
        p[a][1] = y1 + carry[a];
        p[a][2] = z2 + carry[a];
        p[a][3] = z3 + carry[a];
      }
      for (size_t j = 0; j < 4; ++j) {
        if (x[2][j] != 0.0) consider(blk + j, p[0][j], p[1][j], p[2][j]);
      }
      gl = p[0][3];
      hl = p[1][3];
      nl = p[2][3];
    }
  }
  *out = local;
}

void LowerBoundU8Scalar(const double* edges, size_t ne, const double* values,
                        size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const double v = values[i];
    const double* base = edges;
    size_t len = ne;
    while (len > 1) {
      const size_t half = len / 2;
      if (base[half - 1] < v) base += half;
      len -= half;
    }
    out[i] = static_cast<uint8_t>(static_cast<size_t>(base - edges) +
                                  static_cast<size_t>(base[0] < v));
  }
}

void BinnedAccumulateScalar(const BinnedTreeView& tree,
                            const uint8_t* const* cols, size_t begin,
                            size_t end, double* out, size_t out_stride) {
  for (size_t r = begin; r < end; ++r) {
    size_t i = 0;
    int32_t f = tree.feature[0];
    while (f >= 0) {
      i = static_cast<size_t>(cols[static_cast<size_t>(f)][r] <=
                                      tree.split_bin[i]
                                  ? tree.left[i]
                                  : tree.right[i]);
      f = tree.feature[i];
    }
    out[r * out_stride] += tree.leaf_value[i];
  }
}

namespace {

inline void BinnedStep(const BinnedTreeView& tree, const uint8_t* const* cols,
                       size_t r, size_t& node, int32_t& f) {
  const size_t fs = static_cast<size_t>(f < 0 ? 0 : f);
  const size_t next = static_cast<size_t>(
      cols[fs][r] <= tree.split_bin[node] ? tree.left[node]
                                          : tree.right[node]);
  node = f >= 0 ? next : node;
  f = tree.feature[node];
}

}  // namespace

void BinnedAccumulateIlp(const BinnedTreeView& tree,
                         const uint8_t* const* cols, size_t begin, size_t end,
                         double* out, size_t out_stride) {
  size_t r = begin;
  for (; r + 4 <= end; r += 4) {
    size_t n0 = 0, n1 = 0, n2 = 0, n3 = 0;
    int32_t f0 = tree.feature[0];
    int32_t f1 = f0, f2 = f0, f3 = f0;
    while (f0 >= 0 || f1 >= 0 || f2 >= 0 || f3 >= 0) {
      BinnedStep(tree, cols, r + 0, n0, f0);
      BinnedStep(tree, cols, r + 1, n1, f1);
      BinnedStep(tree, cols, r + 2, n2, f2);
      BinnedStep(tree, cols, r + 3, n3, f3);
    }
    out[(r + 0) * out_stride] += tree.leaf_value[n0];
    out[(r + 1) * out_stride] += tree.leaf_value[n1];
    out[(r + 2) * out_stride] += tree.leaf_value[n2];
    out[(r + 3) * out_stride] += tree.leaf_value[n3];
  }
  if (r < end) BinnedAccumulateScalar(tree, cols, r, end, out, out_stride);
}

}  // namespace detail

// The dispatch table is const data: rows above MaxSupportedSimdLevel()
// alias the scalar implementations when the vector TUs are not built, and
// ActiveSimdLevel() never exceeds the supported level at runtime.
const SimdKernels kSimdKernels[kNumSimdLevels] = {
    {detail::HistAccumulateScalar, detail::HistAccumulateMaskedScalar,
     detail::SubSpanScalar, detail::SplitScanScalar,
     detail::LowerBoundU8Scalar, detail::BinnedAccumulateScalar},
#if defined(RVAR_SIMD_X86)
    // SSE4.2 has no usable gather, so the bin search and split scan stay
    // scalar there (always bit-safe).
    {detail::HistAccumulateSse42, detail::HistAccumulateMaskedSse42,
     detail::SubSpanSse42, detail::SplitScanScalar,
     detail::LowerBoundU8Scalar, detail::BinnedAccumulateIlp},
    {detail::HistAccumulateAvx2, detail::HistAccumulateMaskedSse42,
     detail::SubSpanAvx2, detail::SplitScanAvx2, detail::LowerBoundU8Avx2,
     detail::BinnedAccumulateIlp},
#else
    {detail::HistAccumulateScalar, detail::HistAccumulateMaskedScalar,
     detail::SubSpanScalar, detail::SplitScanScalar,
     detail::LowerBoundU8Scalar, detail::BinnedAccumulateScalar},
    {detail::HistAccumulateScalar, detail::HistAccumulateMaskedScalar,
     detail::SubSpanScalar, detail::SplitScanScalar,
     detail::LowerBoundU8Scalar, detail::BinnedAccumulateScalar},
#endif
};

}  // namespace ml
}  // namespace rvar
