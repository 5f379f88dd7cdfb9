#include "ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/strings.h"
#include "ml/simd_kernels.h"

namespace rvar {
namespace ml {

namespace {

// Binner fit and BinColumns fan out over the pool once a pass covers at
// least this many row x feature cells per chunk: a feature's sort over
// 16k rows, or a few 128-row blocks of a wide set, is then a chunk worth
// the dispatch, while small fits (such as 80-row windows) stay one
// inline chunk.
constexpr size_t kMinCellsPerChunk = 16384;

}  // namespace

int Dataset::NumClasses() const {
  int max_label = -1;
  for (int label : y) max_label = std::max(max_label, label);
  return max_label + 1;
}

Status Dataset::Validate() const {
  const size_t nf = NumFeatures();
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != nf) {
      return Status::InvalidArgument(
          StrCat("row ", i, " has ", x[i].size(), " features, expected ", nf));
    }
    for (size_t f = 0; f < nf; ++f) {
      if (!std::isfinite(x[i][f])) {
        return Status::InvalidArgument(
            StrCat("row ", i, " feature ", f, " is not finite"));
      }
    }
  }
  if (!x.empty() && !feature_names.empty() && feature_names.size() != nf) {
    return Status::InvalidArgument(
        StrCat("feature_names has ", feature_names.size(), " entries for ",
               nf, " features"));
  }
  if (!y.empty() && y.size() != x.size()) {
    return Status::InvalidArgument(
        StrCat("labels size ", y.size(), " != rows ", x.size()));
  }
  for (size_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0) {
      return Status::InvalidArgument(StrCat("negative label at row ", i));
    }
  }
  if (!target.empty() && target.size() != x.size()) {
    return Status::InvalidArgument(
        StrCat("targets size ", target.size(), " != rows ", x.size()));
  }
  return Status::OK();
}

Dataset Dataset::Subset(const std::vector<size_t>& idx) const {
  Dataset out;
  out.feature_names = feature_names;
  out.x.reserve(idx.size());
  for (size_t i : idx) {
    RVAR_CHECK_LT(i, x.size());
    out.x.push_back(x[i]);
    if (!y.empty()) out.y.push_back(y[i]);
    if (!target.empty()) out.target.push_back(target[i]);
  }
  return out;
}

std::vector<double> Dataset::Column(size_t f) const {
  RVAR_CHECK_LT(f, NumFeatures());
  std::vector<double> col;
  col.reserve(x.size());
  for (const auto& row : x) col.push_back(row[f]);
  return col;
}

Result<SplitDataset> TrainTestSplit(const Dataset& d, double test_fraction,
                                    Rng* rng) {
  RVAR_CHECK(rng != nullptr);
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    return Status::InvalidArgument(
        StrCat("test_fraction must be in (0,1), got ", test_fraction));
  }
  if (d.NumRows() < 2) {
    return Status::InvalidArgument("need at least 2 rows to split");
  }
  std::vector<size_t> perm = rng->Permutation(d.NumRows());
  size_t n_test = static_cast<size_t>(
      std::round(test_fraction * static_cast<double>(d.NumRows())));
  n_test = std::clamp<size_t>(n_test, 1, d.NumRows() - 1);
  SplitDataset out;
  out.test = d.Subset({perm.begin(), perm.begin() + n_test});
  out.train = d.Subset({perm.begin() + n_test, perm.end()});
  return out;
}

Result<FeatureBinner> FeatureBinner::Fit(const Dataset& d, int max_bins) {
  if (max_bins < 2 || max_bins > 256) {
    return Status::InvalidArgument(
        StrCat("max_bins must be in [2,256], got ", max_bins));
  }
  if (d.NumRows() == 0) {
    return Status::InvalidArgument("cannot fit binner on empty dataset");
  }
  FeatureBinner binner;
  const size_t nf = d.NumFeatures();
  binner.edges_.resize(nf);
  // Each feature's sort, unique and edge pick reads only its own column
  // and writes only edges_[f], so chunks of features run on the pool and
  // the edges are the serial ones at any thread count.
  ParallelFor(nf, GrainForWork(nf, d.NumRows() * nf, kMinCellsPerChunk),
              [&](size_t fbegin, size_t fend) {
    for (size_t f = fbegin; f < fend; ++f) {
      std::vector<double> col = d.Column(f);
      std::sort(col.begin(), col.end());
      col.erase(std::unique(col.begin(), col.end()), col.end());
      std::vector<double>& edges = binner.edges_[f];
      if (static_cast<int>(col.size()) <= max_bins) {
        // One bin per distinct value; edges at midpoints.
        for (size_t i = 0; i + 1 < col.size(); ++i) {
          edges.push_back(0.5 * (col[i] + col[i + 1]));
        }
      } else {
        // Quantile edges over distinct values.
        for (int b = 1; b < max_bins; ++b) {
          const double q =
              static_cast<double>(b) / static_cast<double>(max_bins);
          const size_t pos = std::min(
              col.size() - 1,
              static_cast<size_t>(q * static_cast<double>(col.size())));
          const double e = col[pos];
          if (edges.empty() || e > edges.back()) edges.push_back(e);
        }
      }
    }
  });
  return binner;
}

int FeatureBinner::NumBins(size_t f) const {
  RVAR_CHECK_LT(f, edges_.size());
  return static_cast<int>(edges_[f].size()) + 1;
}

uint8_t FeatureBinner::Bin(size_t f, double v) const {
  RVAR_CHECK_LT(f, edges_.size());
  const std::vector<double>& e = edges_[f];
  // First bin whose upper edge is >= v  <=>  v <= edge.
  const auto it = std::lower_bound(e.begin(), e.end(), v);
  return static_cast<uint8_t>(it - e.begin());
}

double FeatureBinner::UpperEdge(size_t f, int b) const {
  RVAR_CHECK_LT(f, edges_.size());
  RVAR_CHECK_GE(b, 0);
  const std::vector<double>& e = edges_[f];
  if (b >= static_cast<int>(e.size())) {
    return std::numeric_limits<double>::infinity();
  }
  return e[static_cast<size_t>(b)];
}

std::vector<std::vector<uint8_t>> FeatureBinner::BinColumns(
    const Dataset& d) const {
  RVAR_CHECK_EQ(d.NumFeatures(), edges_.size());
  const size_t rows = d.NumRows();
  const size_t nf = edges_.size();
  std::vector<std::vector<uint8_t>> cols(nf);
  for (size_t f = 0; f < nf; ++f) cols[f].resize(rows);
  if (rows == 0 || nf == 0) return cols;
  // Blocks of rows are transposed into one contiguous buffer per feature
  // (each row is read once while cache resident), then each feature's
  // values run through the dispatched lower_bound kernel — the same
  // branch-free halving search Bin(f, v) resolves to, four values in
  // flight on AVX2. Any dispatch row computes the exact lower_bound
  // index (comparisons are exact predicates), so the SIMD level can
  // never change a bin. This is the training hot path: every
  // row x feature is binned once per Fit, so chunks of whole blocks run
  // on the pool. Each chunk transposes into its own scratch and writes
  // only its own rows of each column, so the bytes never depend on the
  // thread count.
  const ml::SimdKernels& kern = ml::ActiveSimdKernels();
  constexpr size_t kRowBlock = 128;
  const size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
  ParallelFor(blocks, GrainForWork(blocks, rows * nf, kMinCellsPerChunk),
              [&](size_t bbegin, size_t bend) {
    std::vector<double> transposed(kRowBlock * nf);
    const size_t row_end = std::min(rows, bend * kRowBlock);
    for (size_t row0 = bbegin * kRowBlock; row0 < row_end; row0 += kRowBlock) {
      const size_t bn = std::min(kRowBlock, rows - row0);
      for (size_t i = 0; i < bn; ++i) {
        const std::vector<double>& x = d.x[row0 + i];
        for (size_t f = 0; f < nf; ++f) {
          transposed[f * kRowBlock + i] = x[f];
        }
      }
      for (size_t f = 0; f < nf; ++f) {
        const std::vector<double>& e = edges_[f];
        if (e.empty()) {
          std::fill(cols[f].begin() + static_cast<ptrdiff_t>(row0),
                    cols[f].begin() + static_cast<ptrdiff_t>(row0 + bn),
                    uint8_t{0});
          continue;
        }
        kern.lower_bound_u8(e.data(), e.size(),
                            transposed.data() + f * kRowBlock, bn,
                            cols[f].data() + row0);
      }
    }
  });
  return cols;
}

}  // namespace ml
}  // namespace rvar
