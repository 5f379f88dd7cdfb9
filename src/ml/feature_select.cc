#include "ml/feature_select.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "common/strings.h"

namespace rvar {
namespace ml {

namespace {

// Centring and the pair sums fan out over the pool once a chunk covers at
// least this many row x column products. A product costs well under a
// nanosecond, so a chunk of 65,536 is tens of microseconds of work;
// small sets, such as 80-row windows, stay one inline chunk.
constexpr size_t kMinProductsPerChunk = 65536;

}  // namespace

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  RVAR_CHECK_EQ(a.size(), b.size());
  const size_t n = a.size();
  if (n < 2) return 0.0;
  double ma = 0.0, mb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

std::vector<std::vector<double>> CorrelationMatrix(const Dataset& d) {
  const size_t nf = d.NumFeatures();
  const size_t n = d.NumRows();
  std::vector<std::vector<double>> corr(nf, std::vector<double>(nf, 0.0));
  for (size_t i = 0; i < nf; ++i) corr[i][i] = 1.0;
  if (n < 2) return corr;

  // Every entry is fabs(PearsonCorrelation(col_i, col_j)) bit for bit:
  // each column is centred once with PearsonCorrelation's mean and its
  // sum of squares in the same row order, so each pair only adds its
  // cross products, again in row order.
  std::vector<std::vector<double>> centred(nf);
  std::vector<double> sum_sq(nf, 0.0);
  ParallelFor(nf, GrainForWork(nf, n * nf, kMinProductsPerChunk),
              [&](size_t fbegin, size_t fend) {
    for (size_t f = fbegin; f < fend; ++f) {
      std::vector<double> col = d.Column(f);
      double mean = 0.0;
      for (double v : col) mean += v;
      mean /= static_cast<double>(n);
      double ss = 0.0;
      for (double& v : col) {
        v -= mean;
        ss += v * v;
      }
      centred[f] = std::move(col);
      sum_sq[f] = ss;
    }
  });

  // Each task sums the cross products of column i with four consecutive
  // columns j0..j0+3 of the upper triangle side by side: four independent
  // chains, each still in row order. A short last task of a row repeats
  // its final column in the spare chains and discards them.
  constexpr size_t kLanes = 4;
  std::vector<std::pair<size_t, size_t>> tasks;
  for (size_t i = 0; i + 1 < nf; ++i) {
    for (size_t j0 = i + 1; j0 < nf; j0 += kLanes) tasks.emplace_back(i, j0);
  }
  ParallelFor(tasks.size(),
              GrainForWork(tasks.size(), tasks.size() * kLanes * n,
                           kMinProductsPerChunk),
              [&](size_t tbegin, size_t tend) {
    for (size_t t = tbegin; t < tend; ++t) {
      const auto [i, j0] = tasks[t];
      const size_t lanes = std::min(kLanes, nf - j0);
      const double* a = centred[i].data();
      const double* b0 = centred[j0].data();
      const double* b1 = centred[j0 + std::min<size_t>(1, lanes - 1)].data();
      const double* b2 = centred[j0 + std::min<size_t>(2, lanes - 1)].data();
      const double* b3 = centred[j0 + lanes - 1].data();
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t r = 0; r < n; ++r) {
        s0 += a[r] * b0[r];
        s1 += a[r] * b1[r];
        s2 += a[r] * b2[r];
        s3 += a[r] * b3[r];
      }
      const double sab[kLanes] = {s0, s1, s2, s3};
      for (size_t l = 0; l < lanes; ++l) {
        const size_t j = j0 + l;
        // PearsonCorrelation's zero-variance test, NaN sums included.
        const double c = sum_sq[i] <= 0.0 || sum_sq[j] <= 0.0
                             ? 0.0
                             : sab[l] / std::sqrt(sum_sq[i] * sum_sq[j]);
        corr[i][j] = corr[j][i] = std::fabs(c);
      }
    }
  });
  return corr;
}

Result<FeatureSelection> SelectUncorrelatedFeatures(
    const Dataset& d, const std::vector<double>& importance,
    double max_abs_correlation) {
  const size_t nf = d.NumFeatures();
  if (nf == 0) return Status::InvalidArgument("dataset has no features");
  if (max_abs_correlation <= 0.0 || max_abs_correlation > 1.0) {
    return Status::InvalidArgument(
        StrCat("max_abs_correlation must be in (0,1], got ",
               max_abs_correlation));
  }
  if (!importance.empty() && importance.size() != nf) {
    return Status::InvalidArgument(
        StrCat("importance has ", importance.size(), " entries for ", nf,
               " features"));
  }

  std::vector<size_t> order(nf);
  std::iota(order.begin(), order.end(), 0);
  if (!importance.empty()) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return importance[a] > importance[b];
    });
  }

  const std::vector<std::vector<double>> corr = CorrelationMatrix(d);
  FeatureSelection sel;
  for (size_t f : order) {
    bool redundant = false;
    for (size_t kept : sel.kept) {
      if (corr[f][kept] >= max_abs_correlation) {
        redundant = true;
        break;
      }
    }
    (redundant ? sel.dropped : sel.kept).push_back(f);
  }
  return sel;
}

Dataset ProjectFeatures(const Dataset& d, const std::vector<size_t>& kept) {
  Dataset out;
  out.y = d.y;
  out.target = d.target;
  for (size_t f : kept) {
    RVAR_CHECK_LT(f, d.NumFeatures());
    if (!d.feature_names.empty()) {
      out.feature_names.push_back(d.feature_names[f]);
    }
  }
  out.x.reserve(d.NumRows());
  for (const auto& row : d.x) {
    std::vector<double> new_row;
    new_row.reserve(kept.size());
    for (size_t f : kept) new_row.push_back(row[f]);
    out.x.push_back(std::move(new_row));
  }
  return out;
}

}  // namespace ml
}  // namespace rvar
