// AVX2 rows of the kernel dispatch table. Compiled with -mavx2 only (no
// -mfma: the kernels are add/sub/compare-only, and contraction could
// change bits); nothing here may be called unless cpuid reported the
// level (see common/simd.h).

#include <immintrin.h>

#include <algorithm>
#include <bit>

#include "ml/simd_kernels.h"

#if !defined(RVAR_SIMD_X86)
#error "simd_kernels_avx2.cc requires RVAR_SIMD"
#endif

namespace rvar {
namespace ml {
namespace detail {

void HistAccumulateAvx2(const size_t* idx, size_t n, const uint8_t* col,
                        const double* gh, size_t nb, double* region,
                        double* scratch) {
  const size_t pw = kHistCellStride * nb;
  std::fill(scratch, scratch + kHistLanes * pw, 0.0);
  // A cell is exactly one 256-bit lane: (grad, hess, count, pad). Each
  // sample update is a single load/add/store of {g, h, 1.0, 0.0} — the
  // pad adds 0.0 + 0.0, which is what the reference's "never touched"
  // leaves behind, so the cells stay bit-identical elementwise.
  //
  // Two lane-groups of four samples run per iteration: samples i and
  // i + 4 share lane i mod 4, and the group-two loads are issued after
  // the group-one stores in program order, so a same-lane same-bin
  // collision still reads the freshly written cell. Within a group the
  // four updates land in distinct lane partials, so they never alias —
  // that is what lets eight read-modify-writes stay in flight.
  const __m256d count_one = _mm256_set_pd(0.0, 1.0, 0.0, 0.0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const size_t r0 = idx[i], r1 = idx[i + 1], r2 = idx[i + 2],
                 r3 = idx[i + 3];
    const size_t r4 = idx[i + 4], r5 = idx[i + 5], r6 = idx[i + 6],
                 r7 = idx[i + 7];
    double* c0 = scratch + 0 * pw + kHistCellStride * (size_t)col[r0];
    double* c1 = scratch + 1 * pw + kHistCellStride * (size_t)col[r1];
    double* c2 = scratch + 2 * pw + kHistCellStride * (size_t)col[r2];
    double* c3 = scratch + 3 * pw + kHistCellStride * (size_t)col[r3];
    double* c4 = scratch + 0 * pw + kHistCellStride * (size_t)col[r4];
    double* c5 = scratch + 1 * pw + kHistCellStride * (size_t)col[r5];
    double* c6 = scratch + 2 * pw + kHistCellStride * (size_t)col[r6];
    double* c7 = scratch + 3 * pw + kHistCellStride * (size_t)col[r7];
    const __m256d u0 =
        _mm256_insertf128_pd(count_one, _mm_loadu_pd(gh + 2 * r0), 0);
    const __m256d u1 =
        _mm256_insertf128_pd(count_one, _mm_loadu_pd(gh + 2 * r1), 0);
    const __m256d u2 =
        _mm256_insertf128_pd(count_one, _mm_loadu_pd(gh + 2 * r2), 0);
    const __m256d u3 =
        _mm256_insertf128_pd(count_one, _mm_loadu_pd(gh + 2 * r3), 0);
    _mm256_storeu_pd(c0, _mm256_add_pd(_mm256_loadu_pd(c0), u0));
    _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), u1));
    _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), u2));
    _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), u3));
    const __m256d u4 =
        _mm256_insertf128_pd(count_one, _mm_loadu_pd(gh + 2 * r4), 0);
    const __m256d u5 =
        _mm256_insertf128_pd(count_one, _mm_loadu_pd(gh + 2 * r5), 0);
    const __m256d u6 =
        _mm256_insertf128_pd(count_one, _mm_loadu_pd(gh + 2 * r6), 0);
    const __m256d u7 =
        _mm256_insertf128_pd(count_one, _mm_loadu_pd(gh + 2 * r7), 0);
    _mm256_storeu_pd(c4, _mm256_add_pd(_mm256_loadu_pd(c4), u4));
    _mm256_storeu_pd(c5, _mm256_add_pd(_mm256_loadu_pd(c5), u5));
    _mm256_storeu_pd(c6, _mm256_add_pd(_mm256_loadu_pd(c6), u6));
    _mm256_storeu_pd(c7, _mm256_add_pd(_mm256_loadu_pd(c7), u7));
  }
  for (; i < n; ++i) {
    const size_t row = idx[i];
    double* cell = scratch + (i & 3) * pw +
                   kHistCellStride * static_cast<size_t>(col[row]);
    cell[0] += gh[2 * row];
    cell[1] += gh[2 * row + 1];
    cell[2] += 1.0;
  }
  const double* l0 = scratch;
  const double* l1 = scratch + pw;
  const double* l2 = scratch + 2 * pw;
  const double* l3 = scratch + 3 * pw;
  for (size_t c = 0; c < pw; c += 4) {
    const __m256d s01 =
        _mm256_add_pd(_mm256_loadu_pd(l0 + c), _mm256_loadu_pd(l1 + c));
    const __m256d s012 = _mm256_add_pd(s01, _mm256_loadu_pd(l2 + c));
    _mm256_storeu_pd(region + c,
                     _mm256_add_pd(s012, _mm256_loadu_pd(l3 + c)));
  }
}

void SubSpanAvx2(double* a, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        a + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) a[i] -= b[i];
}

void SplitScanAvx2(const double* region, const uint64_t* mask,
                   size_t mask_words, size_t last, double n_rows,
                   double node_g, double node_h, double lambda,
                   double min_leaf, double min_child_weight,
                   SplitScanResult* out) {
  SplitScanResult local;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d v_lam = _mm256_set1_pd(lambda);
  const __m256d v_ng = _mm256_set1_pd(node_g);
  const __m256d v_nh = _mm256_set1_pd(node_h);
  const __m256d v_nrows = _mm256_set1_pd(n_rows);
  const __m256d v_minleaf = _mm256_set1_pd(min_leaf);
  const __m256d v_mcw = _mm256_set1_pd(min_child_weight);
  const __m256d v_last = _mm256_set1_pd(static_cast<double>(last));
  // Uniform blocked walk — simd_kernels.cc defines the lane equations and
  // why the mask is only ever a prefilter (the result must not depend on
  // a derived histogram's superset mask). Everything is vector per 4-bin
  // block: the shift-scan prefix, the constraint gates, the candidate
  // rationals, and a screen against the running best. Only blocks the
  // screen flags (rare — the best changes O(log bins) times on typical
  // histograms) fall back to a scalar replay of the stored lane values,
  // in lane (= bin) order, so the strictly-greater fold — and the
  // lowest-bin tie-break — is exactly the reference's. The carries ride
  // in broadcast registers across the whole scan.
  __m256d cg = zero;
  __m256d ch = zero;
  __m256d cn = zero;
  __m256d v_bnum = _mm256_set1_pd(local.num);
  __m256d v_bden = _mm256_set1_pd(local.den);
  for (size_t w = 0; w < mask_words; ++w) {
    const uint64_t bits = mask[w];
    if (bits == 0) continue;
    const size_t base = w * 64;
    if (base >= last) break;
    for (size_t s = 0; s < 64; s += 4) {
      if (((bits >> s) & uint64_t{0xF}) == 0) continue;
      const size_t blk = base + s;
      if (blk >= last) break;
      const double* p = region + kHistCellStride * blk;
      const __m256d q0 = _mm256_loadu_pd(p);
      const __m256d q1 = _mm256_loadu_pd(p + kHistCellStride);
      const __m256d q2 = _mm256_loadu_pd(p + 2 * kHistCellStride);
      const __m256d q3 = _mm256_loadu_pd(p + 3 * kHistCellStride);
      const __m256d t02 = _mm256_unpacklo_pd(q0, q1);
      const __m256d t13 = _mm256_unpackhi_pd(q0, q1);
      const __m256d u02 = _mm256_unpacklo_pd(q2, q3);
      const __m256d u13 = _mm256_unpackhi_pd(q2, q3);
      const __m256d gv = _mm256_permute2f128_pd(t02, u02, 0x20);
      const __m256d hv = _mm256_permute2f128_pd(t13, u13, 0x20);
      const __m256d nv = _mm256_permute2f128_pd(t02, u02, 0x31);
      // Gate-zeroed lanes (bin >= last, or empty bin) neither enter the
      // prefix nor become candidates. An all-gated block is skipped
      // whole — the defined semantics, matched by the reference, so a
      // -0.0 carry is never flushed through +0.0 adds. The loads above
      // may run past `last` (the pool rows carry one block of pad for
      // the final feature); those lanes are cut here.
      __m256d occ = _mm256_cmp_pd(nv, zero, _CMP_NEQ_OQ);
      if (blk + 4 > last) {
        const __m256d idxv = _mm256_set_pd(
            static_cast<double>(blk + 3), static_cast<double>(blk + 2),
            static_cast<double>(blk + 1), static_cast<double>(blk));
        occ = _mm256_and_pd(occ, _mm256_cmp_pd(idxv, v_last, _CMP_LT_OQ));
      }
      if (_mm256_movemask_pd(occ) == 0) continue;
      const __m256d xg = _mm256_and_pd(gv, occ);
      const __m256d xh = _mm256_and_pd(hv, occ);
      const __m256d xn = _mm256_and_pd(nv, occ);
      // Two shifted adds + carry, with pass-through lanes blended (not
      // added to zero) so every lane is byte-for-byte the reference's.
      const auto prefix4 = [](__m256d x, __m256d carry) {
        __m256d y = _mm256_add_pd(
            x, _mm256_permute4x64_pd(x, _MM_SHUFFLE(2, 1, 0, 0)));
        y = _mm256_blend_pd(y, x, 0x1);
        __m256d z = _mm256_add_pd(y, _mm256_permute2f128_pd(y, y, 0x08));
        z = _mm256_blend_pd(z, y, 0x3);
        return _mm256_add_pd(z, carry);
      };
      const __m256d pg = prefix4(xg, cg);
      const __m256d ph = prefix4(xh, ch);
      const __m256d pn = prefix4(xn, cn);
      cg = _mm256_permute4x64_pd(pg, _MM_SHUFFLE(3, 3, 3, 3));
      ch = _mm256_permute4x64_pd(ph, _MM_SHUFFLE(3, 3, 3, 3));
      cn = _mm256_permute4x64_pd(pn, _MM_SHUFFLE(3, 3, 3, 3));
      // Gates as NOT-LESS-THAN (the exact negation of the reference's
      // early-out `<`, including its NaN behaviour).
      const __m256d nrv = _mm256_sub_pd(v_nrows, pn);
      const __m256d hrv = _mm256_sub_pd(v_nh, ph);
      __m256d valid =
          _mm256_and_pd(occ, _mm256_cmp_pd(pn, v_minleaf, _CMP_NLT_UQ));
      valid = _mm256_and_pd(valid, _mm256_cmp_pd(nrv, v_minleaf, _CMP_NLT_UQ));
      valid = _mm256_and_pd(valid, _mm256_cmp_pd(ph, v_mcw, _CMP_NLT_UQ));
      valid = _mm256_and_pd(valid, _mm256_cmp_pd(hrv, v_mcw, _CMP_NLT_UQ));
      const __m256d grv = _mm256_sub_pd(v_ng, pg);
      const __m256d blv = _mm256_add_pd(ph, v_lam);
      const __m256d brv = _mm256_add_pd(hrv, v_lam);
      const __m256d numv =
          _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(pg, pg), brv),
                        _mm256_mul_pd(_mm256_mul_pd(grv, grv), blv));
      const __m256d denv = _mm256_mul_pd(blv, brv);
      // Screen: does any valid lane beat the block-start best? If not,
      // the reference fold leaves the best untouched across this block
      // (the best only improves, so a lane that cannot beat the start
      // best cannot beat a later one) and the block is done.
      const __m256d beat = _mm256_and_pd(
          valid, _mm256_cmp_pd(_mm256_mul_pd(numv, v_bden),
                               _mm256_mul_pd(v_bnum, denv), _CMP_GT_OQ));
      const int hit = _mm256_movemask_pd(beat);
      if (hit == 0) continue;
      const int vmask = _mm256_movemask_pd(valid);
      alignas(32) double ga[4], ha[4], na[4], nu[4], de[4];
      _mm256_store_pd(ga, pg);
      _mm256_store_pd(ha, ph);
      _mm256_store_pd(na, pn);
      _mm256_store_pd(nu, numv);
      _mm256_store_pd(de, denv);
      for (int l = 0; l < 4; ++l) {
        if (((vmask >> l) & 1) == 0) continue;
        if (nu[l] * local.den > local.num * de[l]) {
          local.num = nu[l];
          local.den = de[l];
          local.bin = static_cast<int32_t>(blk + static_cast<size_t>(l));
          local.left_g = ga[l];
          local.left_h = ha[l];
        }
      }
      v_bnum = _mm256_set1_pd(local.num);
      v_bden = _mm256_set1_pd(local.den);
    }
  }
  *out = local;
}

void LowerBoundU8Avx2(const double* edges, size_t ne, const double* values,
                      size_t n, uint8_t* out) {
  // Four searches in flight. The halving sequence depends only on ne, so
  // all lanes probe the same `half` each step and the per-lane base
  // offsets advance by a masked add — the same comparisons, in the same
  // order, as the scalar branch-free loop. _CMP_LT_OQ is the ordered `<`:
  // NaN compares false everywhere (bin 0), +inf lands past the last edge.
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    __m256i base = _mm256_setzero_si256();
    size_t len = ne;
    while (len > 1) {
      const size_t half = len / 2;
      const __m256i probe = _mm256_add_epi64(
          base, _mm256_set1_epi64x(static_cast<long long>(half - 1)));
      const __m256d e = _mm256_i64gather_pd(edges, probe, 8);
      const __m256d lt = _mm256_cmp_pd(e, v, _CMP_LT_OQ);
      base = _mm256_add_epi64(
          base, _mm256_and_si256(_mm256_castpd_si256(lt),
                                 _mm256_set1_epi64x(
                                     static_cast<long long>(half))));
      len -= half;
    }
    const __m256d e0 = _mm256_i64gather_pd(edges, base, 8);
    const __m256i inc =
        _mm256_and_si256(_mm256_castpd_si256(_mm256_cmp_pd(e0, v, _CMP_LT_OQ)),
                         _mm256_set1_epi64x(1));
    alignas(32) long long lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                       _mm256_add_epi64(base, inc));
    out[i + 0] = static_cast<uint8_t>(lanes[0]);
    out[i + 1] = static_cast<uint8_t>(lanes[1]);
    out[i + 2] = static_cast<uint8_t>(lanes[2]);
    out[i + 3] = static_cast<uint8_t>(lanes[3]);
  }
  if (i < n) LowerBoundU8Scalar(edges, ne, values + i, n - i, out + i);
}

}  // namespace detail
}  // namespace ml
}  // namespace rvar
