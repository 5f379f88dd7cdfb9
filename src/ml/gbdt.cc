#include "ml/gbdt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "ml/simd_kernels.h"

namespace rvar {
namespace ml {
namespace {

constexpr size_t kNoHist = static_cast<size_t>(-1);

// A grown-but-unexpanded leaf with its best split precomputed.
struct LeafCandidate {
  int node_id;
  size_t begin, end;  // span in the index array
  int depth;
  double gain;
  int feature;
  int bin;
  // Node grad/hess totals, threaded down from the parent's split scan so
  // they are never re-summed over rows.
  double node_g, node_h;
  // Prefix sums at the winning bin == the left child's totals.
  double left_g, left_h;
  // Handle of this node's cached histogram in the builder's pool; kNoHist
  // when the node was never eligible for a split search.
  size_t hist;

  bool operator<(const LeafCandidate& other) const {
    return gain < other.gain;  // max-heap on gain
  }
};

// Trains one Newton tree on (grad, hess) with leaf-wise growth.
// Leaf values are -G/(H+lambda) * learning_rate.
//
// Split finding works on cached per-node histograms (DESIGN.md §10): each
// heap candidate owns a pooled buffer holding, for every feature, per-bin
// (grad, hess, count) sums in one contiguous allocation. When a node is
// expanded, only the smaller child's histogram is accumulated from rows;
// the larger child's is derived by elementwise subtraction from the
// parent's buffer (which it then reuses) — about half the histogram work
// of building both children. Which child is built directly depends only on
// the partition sizes, and every row scan walks idx_ in index order, so
// the result is bit-identical at any thread count.

// Reusable cross-tree training workspace: the histogram pool (buffers,
// occupancy masks, free list) and the interleaved (grad, hess) pairs of
// the tree being built. One Fit trains num_rounds * K trees over the same
// binned layout, so the multi-hundred-KB pool buffers allocated (and
// zeroed) for a workspace's first tree are recycled by every later one
// instead of being reallocated per tree — which would otherwise dominate
// training with page-fault memsets. The pool invariant (cells outside a
// buffer's mask are exactly zero) survives Release/Acquire across trees
// because a buffer keeps its last occupant's mask until the next occupant
// clears through it; so which workspace builds a tree never changes it.
struct GbdtWorkspace {
  std::vector<std::vector<double>> pool;
  std::vector<std::vector<uint64_t>> pool_mask;
  std::vector<size_t> free_list;
  std::vector<double> gh;
};

// The workspaces of one Fit call, shared by the concurrent class-tree
// tasks of each round. A task takes one for the duration of its tree and
// gives it back, so at most one workspace exists per thread running the
// region (never one per class), and each is reused across rounds.
class GbdtWorkspaceList {
 public:
  std::unique_ptr<GbdtWorkspace> Take() {
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.empty()) return std::make_unique<GbdtWorkspace>();
    std::unique_ptr<GbdtWorkspace> ws = std::move(free_.back());
    free_.pop_back();
    return ws;
  }

  void Give(std::unique_ptr<GbdtWorkspace> ws) {
    std::lock_guard<std::mutex> lk(mu_);
    free_.push_back(std::move(ws));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<GbdtWorkspace>> free_;
};

class GbdtTreeBuilder {
 public:
  struct BuiltTree {
    Tree tree;
    // split_bin[node] is the bin index behind tree.nodes[node].threshold;
    // meaningful only where feature >= 0. Lets training-time score updates
    // traverse by uint8 bin comparisons over BinnedDataset columns, which
    // route identically to threshold comparisons on the raw doubles
    // (dataset.h: Bin(f, v) <= b exactly when v <= UpperEdge(f, b)).
    std::vector<uint8_t> split_bin;
    // (feature, gain) of every split, in the order the splits were made;
    // the caller folds them into the model's feature importance.
    std::vector<std::pair<int, double>> split_gains;
  };

  // Builds on ws->gh, the interleaved (grad, hess) pairs of every row,
  // which the caller fills before Build: the accumulation kernels read one
  // sample's pair as a single 128-bit load.
  GbdtTreeBuilder(const BinnedDataset& data, const GbdtConfig& config,
                  const std::vector<uint8_t>& feature_mask, GbdtWorkspace* ws)
      : data_(data), config_(config), feature_mask_(feature_mask), ws_(*ws) {
    // Histogram layout: feature f's bins start at kHistCellStride *
    // offset_[f], with bin b's (grad, hess, count, pad) quad interleaved
    // at kHistCellStride * b — one cache line per sample update, and a
    // cell is exactly one 256-bit lane so the dispatched accumulation
    // kernel updates it with a single vector add (simd_kernels.h).
    const size_t nf = data_.columns.size();
    offset_.resize(nf);
    size_t total = 0;
    size_t max_bins = 0;
    for (size_t f = 0; f < nf; ++f) {
      offset_[f] = total;
      const size_t nb = static_cast<size_t>(data_.binner->NumBins(f));
      total += nb;
      max_bins = std::max(max_bins, nb);
    }
    total_bins_ = total;
    max_bins_ = max_bins;
    mask_stride_ = (max_bins + 63) / 64;
  }

  BuiltTree Build(std::vector<size_t> sample_idx) {
    idx_ = std::move(sample_idx);
    tree_.nodes.clear();
    split_bin_.clear();
    split_gains_.clear();
    // A tree with L leaves holds 2L-1 nodes; reserving up front keeps
    // NewLeaf from reallocating the node vector mid-growth.
    const size_t max_nodes =
        2 * static_cast<size_t>(std::max(config_.max_leaves, 1)) - 1;
    tree_.nodes.reserve(max_nodes);
    split_bin_.reserve(max_nodes);

    std::priority_queue<LeafCandidate> heap;
    const auto [root_g, root_h] = SpanTotals(0, idx_.size());
    const int root = NewLeaf(root_g, root_h);
    LeafCandidate root_cand{root,   0,      idx_.size(), 0,   0.0, -1, -1,
                            root_g, root_h, 0.0,         0.0, kNoHist};
    if (SpanCanSplit(idx_.size())) {
      root_cand.hist = AcquireHist();
      BuildHistogram(0, idx_.size(), root_cand.hist);
      FindBestSplit(&root_cand);
    }
    PushOrRelease(&heap, root_cand);

    int num_leaves = 1;
    while (!heap.empty() && num_leaves < config_.max_leaves) {
      LeafCandidate cand = heap.top();
      heap.pop();
      if (cand.gain < config_.min_gain) {
        ReleaseHist(cand.hist);
        break;
      }

      // Partition the span on the chosen (feature, bin).
      const std::vector<uint8_t>& col =
          data_.columns[static_cast<size_t>(cand.feature)];
      auto mid_it = std::partition(
          idx_.begin() + static_cast<ptrdiff_t>(cand.begin),
          idx_.begin() + static_cast<ptrdiff_t>(cand.end),
          [&](size_t row) { return col[row] <= static_cast<uint8_t>(cand.bin); });
      const size_t mid = static_cast<size_t>(mid_it - idx_.begin());
      if (mid == cand.begin || mid == cand.end) {  // degenerate
        ReleaseHist(cand.hist);
        continue;
      }

      split_gains_.emplace_back(cand.feature, cand.gain);

      const size_t node_id = static_cast<size_t>(cand.node_id);
      tree_.nodes[node_id].feature = cand.feature;
      tree_.nodes[node_id].threshold = data_.binner->UpperEdge(
          static_cast<size_t>(cand.feature), cand.bin);
      split_bin_[node_id] = static_cast<uint8_t>(cand.bin);
      const double right_g = cand.node_g - cand.left_g;
      const double right_h = cand.node_h - cand.left_h;
      const int left = NewLeaf(cand.left_g, cand.left_h);
      const int right = NewLeaf(right_g, right_h);
      tree_.nodes[node_id].left = left;
      tree_.nodes[node_id].right = right;
      ++num_leaves;

      LeafCandidate lc{left,        cand.begin,  mid, cand.depth + 1,
                       0.0,         -1,          -1,  cand.left_g,
                       cand.left_h, 0.0,         0.0, kNoHist};
      LeafCandidate rc{right,   mid,     cand.end, cand.depth + 1,
                       0.0,     -1,      -1,       right_g,
                       right_h, 0.0,     0.0,      kNoHist};
      const bool deep_ok = cand.depth + 1 < config_.max_depth;
      const bool l_ok = deep_ok && SpanCanSplit(mid - cand.begin);
      const bool r_ok = deep_ok && SpanCanSplit(cand.end - mid);
      if (l_ok && r_ok) {
        // Build the smaller child's histogram from rows; the sibling's is
        // the parent's minus it, computed in place in the parent's buffer
        // (ties build the left child — a pure function of the partition).
        LeafCandidate* small =
            (mid - cand.begin <= cand.end - mid) ? &lc : &rc;
        LeafCandidate* large = (small == &lc) ? &rc : &lc;
        small->hist = AcquireHist();
        BuildHistogram(small->begin, small->end, small->hist);
        large->hist = cand.hist;
        if (config_.use_hist_subtraction) {
          SubtractHistogram(large->hist, small->hist);
        } else {
          BuildHistogram(large->begin, large->end, large->hist);
        }
        FindBestSplit(&lc);
        FindBestSplit(&rc);
      } else if (l_ok || r_ok) {
        // Only one child can ever split; build it directly into the
        // parent's buffer.
        LeafCandidate* only = l_ok ? &lc : &rc;
        only->hist = cand.hist;
        BuildHistogram(only->begin, only->end, only->hist);
        FindBestSplit(only);
      } else {
        ReleaseHist(cand.hist);
      }
      PushOrRelease(&heap, lc);
      PushOrRelease(&heap, rc);
    }
    // Candidates still queued when growth stops (leaf cap, gain cutoff)
    // hold pooled buffers; return them so the next tree's builder finds
    // the whole pool on the workspace's free list.
    while (!heap.empty()) {
      ReleaseHist(heap.top().hist);
      heap.pop();
    }
    RVAR_CHECK_EQ(ws_.free_list.size(), ws_.pool.size())
        << "histogram buffer not returned to the workspace pool";
    BuiltTree out;
    out.tree = std::move(tree_);
    out.split_bin = std::move(split_bin_);
    out.split_gains = std::move(split_gains_);
    return out;
  }

 private:
  bool SpanCanSplit(size_t n) const {
    return n >= 2 * static_cast<size_t>(config_.min_samples_leaf);
  }

  // Appends a leaf with the given grad/hess totals; returns its id.
  int NewLeaf(double g, double h) {
    TreeNode node;
    node.value = {-g / (h + config_.lambda_l2) * config_.learning_rate};
    node.cover = h;
    tree_.nodes.push_back(std::move(node));
    split_bin_.push_back(0);
    return static_cast<int>(tree_.nodes.size()) - 1;
  }

  // Pushes a searchable candidate; otherwise returns its buffer (if any)
  // to the pool.
  void PushOrRelease(std::priority_queue<LeafCandidate>* heap,
                     const LeafCandidate& cand) {
    if (cand.feature >= 0) {
      heap->push(cand);
    } else {
      ReleaseHist(cand.hist);
    }
  }

  // Deterministic chunked grad/hess totals over idx_[begin, end); used
  // once per tree for the root (children inherit theirs from the parent's
  // winning-bin prefix sums).
  std::pair<double, double> SpanTotals(size_t begin, size_t end) const {
    struct GH {
      double g = 0.0, h = 0.0;
    };
    const GH t = ParallelReduce<GH>(
        end - begin, /*grain=*/8192, GH{},
        [&](size_t b, size_t e) {
          GH local;
          for (size_t i = begin + b; i < begin + e; ++i) {
            local.g += ws_.gh[2 * idx_[i]];
            local.h += ws_.gh[2 * idx_[i] + 1];
          }
          return local;
        },
        [](GH acc, GH part) {
          acc.g += part.g;
          acc.h += part.h;
          return acc;
        });
    return {t.g, t.h};
  }

  size_t AcquireHist() {
    if (!ws_.free_list.empty()) {
      const size_t h = ws_.free_list.back();
      ws_.free_list.pop_back();
      return h;
    }
    // Fresh buffers are all-zero with an empty mask, which satisfies the
    // occupancy invariant (cells outside the mask are exactly zero). One
    // spare cell block pads the row so the split scan's 4-bin vector
    // loads may run up to three cells past the last feature's region;
    // the pad is never written and its lanes are gated out before use.
    ws_.pool.emplace_back(kHistCellStride * (total_bins_ + 4));
    ws_.pool_mask.emplace_back(data_.columns.size() * mask_stride_, 0);
    return ws_.pool.size() - 1;
  }

  void ReleaseHist(size_t h) {
    if (h != kNoHist) ws_.free_list.push_back(h);
  }

  // Fan-out policy: a pool dispatch costs tens of microseconds, so a chunk
  // must carry at least a few thousand row-updates (builds) or bin reads
  // (scans) to amortize it. Both cutoffs are pure functions of the node
  // size and the dataset shape — never the thread count — so chunking, and
  // with it every result, is identical at any parallelism level.
  static constexpr size_t kMinRowsPerBuildChunk = 4096;
  static constexpr size_t kMinBinsPerScanChunk = 16384;

  // Feature grain for histogram accumulation over `span_rows` rows: one
  // inline chunk for small nodes, otherwise chunks sized so each covers at
  // least kMinRowsPerBuildChunk rows' worth of updates.
  size_t BuildGrain(size_t span_rows) const {
    return GrainForWork(data_.columns.size(), span_rows,
                        kMinRowsPerBuildChunk);
  }

  // Feature grain for split scans, whose cost tracks the bin count, not
  // the node size; typical layouts (tens of features x 256 bins) are far
  // cheaper than a dispatch and run as one inline chunk.
  size_t ScanGrain() const {
    return GrainForWork(data_.columns.size(), total_bins_,
                        kMinBinsPerScanChunk);
  }

  // Accumulates the (grad, hess, count) histogram of idx_[begin, end) into
  // pool buffer h. Features are independent, so the build fans out over
  // deterministic feature chunks (each feature's region is written by
  // exactly one chunk, so any grouping yields identical contents); within
  // a feature, the accumulation semantics are fixed per regime (below), so
  // the contents never depend on the thread count or the SIMD level.
  //
  // Every pool buffer carries a per-feature occupancy bitmask upholding
  // one invariant: cells outside the mask are exactly zero (pad cells are
  // zero everywhere). Recycled buffers are therefore cleared by walking
  // the previous occupant's set bits instead of zero-filling whole
  // regions, and downstream work (subtraction, split scans) touches only
  // occupied bins — the cost of a node scales with how many bins its rows
  // actually hit, not with the full bin layout.
  //
  // Two accumulation regimes, chosen purely by (node size, bin count):
  //  - Dense (rows >= 8 * nb): the dispatched lane-partial kernel
  //    (simd_kernels.h) overwrites the whole region — no clearing needed —
  //    and the mask is set full-range (a valid superset, nearly exact for
  //    dense nodes). The kernel's four-lane fixed-order reduction is the
  //    *defined* semantics; the scalar dispatch row implements the same
  //    lanes, so every level produces the same bits.
  //  - Sparse: the dispatched masked kernel accumulates sequentially in
  //    index order with exact per-sample mask bits — the same updates, in
  //    the same order, at every level.
  void BuildHistogram(size_t begin, size_t end, size_t h) {
    std::vector<double>& buf = ws_.pool[h];
    std::vector<uint64_t>& mask = ws_.pool_mask[h];
    const SimdKernels& kern = ActiveSimdKernels();
    ParallelFor(data_.columns.size(), BuildGrain(end - begin),
                [&](size_t fbegin, size_t fend) {
      // Lane scratch for the dense kernel, per chunk (chunks may run on
      // different threads); sized once for the widest feature.
      std::vector<double> scratch;
      for (size_t f = fbegin; f < fend; ++f) {
        const size_t nb = static_cast<size_t>(data_.binner->NumBins(f));
        double* region = buf.data() + kHistCellStride * offset_[f];
        uint64_t* m = mask.data() + f * mask_stride_;
        const bool active = feature_mask_[f] && nb >= 2;
        // The lane kernel pays a full scratch clear plus a full-region
        // reduce (8 * nb cells of traffic) regardless of node size, so it
        // must be amortized over well more rows than bins; below that the
        // masked sequential kernel touches only the cells the rows hit.
        if (active && end - begin >= 8 * nb) {
          // Dense node: nearly every bin gets hit, so a full-range mask
          // is as good as an exact one, the per-sample bit updates can be
          // skipped entirely, and the kernel's full-region overwrite
          // subsumes clearing the previous occupant (the old mask bits
          // for this feature all lie inside the overwritten range).
          if (scratch.size() < HistScratchDoubles(nb)) {
            scratch.resize(HistScratchDoubles(max_bins_));
          }
          kern.hist_accumulate(idx_.data() + begin, end - begin,
                               data_.columns[f].data(), ws_.gh.data(), nb,
                               region, scratch.data());
          for (size_t w = 0; w * 64 < nb; ++w) {
            const size_t bins_left = nb - w * 64;
            m[w] = bins_left >= 64 ? ~uint64_t{0}
                                   : (uint64_t{1} << bins_left) - 1;
          }
          continue;
        }
        // Clear the previous occupant's cells: sparse mask words walk
        // their set bits, dense words blast the whole 64-bin range with a
        // contiguous fill (cells outside the mask are already zero, so
        // overwriting them is exact).
        for (size_t w = 0; w < mask_stride_; ++w) {
          uint64_t bits = m[w];
          if (bits == 0) continue;
          if (std::popcount(bits) >= 16) {
            const size_t lo = w * 64;
            const size_t hi = std::min(nb, lo + 64);
            std::fill(region + kHistCellStride * lo,
                      region + kHistCellStride * hi, 0.0);
          } else {
            while (bits != 0) {
              const size_t b =
                  w * 64 + static_cast<size_t>(std::countr_zero(bits));
              bits &= bits - 1;
              double* cell = region + kHistCellStride * b;
              cell[0] = 0.0;
              cell[1] = 0.0;
              cell[2] = 0.0;
            }
          }
          m[w] = 0;
        }
        if (!active) continue;
        // Column-outer accumulation keeps the working set L1-resident:
        // one feature's ~4KB region plus the interleaved gh pairs. Each
        // sample's (g, h, n) update lands on one interleaved cache line.
        kern.hist_accumulate_masked(idx_.data() + begin, end - begin,
                                    data_.columns[f].data(), ws_.gh.data(),
                                    region, m);
      }
    });
  }

  // large -= small over the small child's occupied cells only — cells
  // outside its mask are exactly zero (the pool invariant), so skipping
  // them is not an approximation. The large buffer keeps the parent's
  // mask: the small child's rows are a subset of the parent's, so its
  // occupancy is covered, and the superset stays a valid mask for the
  // derived result. Counts are exact integers in double, so sample-count
  // split constraints are unaffected by the derivation; grad/hess pick up
  // O(1e-12) relative cancellation noise, which is deterministic (fixed
  // operand order).
  void SubtractHistogram(size_t large, size_t small) {
    std::vector<double>& l = ws_.pool[large];
    const std::vector<double>& s = ws_.pool[small];
    const std::vector<uint64_t>& sm = ws_.pool_mask[small];
    const SimdKernels& kern = ActiveSimdKernels();
    const size_t nf = data_.columns.size();
    for (size_t f = 0; f < nf; ++f) {
      double* lregion = l.data() + kHistCellStride * offset_[f];
      const double* sregion = s.data() + kHistCellStride * offset_[f];
      const uint64_t* m = sm.data() + f * mask_stride_;
      for (size_t w = 0; w < mask_stride_; ++w) {
        uint64_t bits = m[w];
        if (bits == ~uint64_t{0}) {
          // 64 consecutive occupied bins (the common case under the dense
          // build's full-range mask): one contiguous elementwise vector
          // subtract over the whole word's cells. Subtraction is
          // elementwise, so any lane width gives identical bits; pads
          // stay zero (0 - 0).
          kern.sub_span(lregion + kHistCellStride * w * 64,
                        sregion + kHistCellStride * w * 64,
                        kHistCellStride * 64);
          continue;
        }
        while (bits != 0) {
          const size_t b =
              w * 64 + static_cast<size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          double* lc = lregion + kHistCellStride * b;
          const double* sc = sregion + kHistCellStride * b;
          lc[0] -= sc[0];
          lc[1] -= sc[1];
          lc[2] -= sc[2];
        }
      }
    }
  }

  // XGBoost split gain: 1/2 [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)].
  double SplitGain(double gl, double hl, double gr, double hr) const {
    const double l = config_.lambda_l2;
    const double g = gl + gr, h = hl + hr;
    return 0.5 * (gl * gl / (hl + l) + gr * gr / (hr + l) - g * g / (h + l));
  }

  // Best split over a contiguous feature range. The maximized objective is
  // the variable part of the gain, score = GL^2/(HL+l) + GR^2/(HR+l), kept
  // as the exact rational num/den (den > 0):
  //   num = GL^2*(HR+l) + GR^2*(HL+l),   den = (HL+l)*(HR+l).
  // Candidates compare by cross-multiplication, which keeps the per-bin
  // loop division-free; the winner's true gain is derived once at the end.
  // Merges happen in chunk-index order (common/parallel.h), so the same
  // comparison sequence runs at every thread count and the lowest feature
  // index wins ties (strictly-greater replacement).
  struct SplitChoice {
    double num = -1.0, den = 1.0;  // sentinel: loses to any real candidate
    int feature = -1;
    int bin = -1;
    double left_g = 0.0, left_h = 0.0;
  };

  // Scans cand's cached histogram for the best split; requires cand->hist.
  void FindBestSplit(LeafCandidate* cand) {
    cand->feature = -1;
    cand->gain = -1.0;
    const size_t n = cand->end - cand->begin;
    const std::vector<double>& buf = ws_.pool[cand->hist];
    const double min_leaf = static_cast<double>(config_.min_samples_leaf);
    // The parent contribution to the gain is constant across the node; it
    // only enters the winner's final gain, never the per-bin comparison.
    const double lambda = config_.lambda_l2;
    const double parent_term =
        cand->node_g * cand->node_g / (cand->node_h + lambda);

    const SplitChoice best = ParallelReduce<SplitChoice>(
        data_.columns.size(), ScanGrain(), SplitChoice{},
        [&](size_t fbegin, size_t fend) {
          SplitChoice local;
          const SimdKernels& kern = ActiveSimdKernels();
          const std::vector<uint64_t>& mask = ws_.pool_mask[cand->hist];
          for (size_t f = fbegin; f < fend; ++f) {
            if (!feature_mask_[f]) continue;
            const int num_bins = data_.binner->NumBins(f);
            if (num_bins < 2) continue;
            const double* hist = buf.data() + kHistCellStride * offset_[f];
            const uint64_t* m = mask.data() + f * mask_stride_;
            // The per-feature scan is the dispatched split_scan kernel
            // (simd_kernels.h): it walks only the mask's set bits — only
            // occupied bins move the prefix sums or can win, since an
            // empty bin's gain ties the previous candidate's and the
            // strictly-greater comparison never picks a tie. A derived
            // (subtraction) histogram carries the parent's mask — a
            // superset — so bins the subtraction emptied still show up;
            // their exact-zero counts skip them, which also keeps ~1e-17
            // grad/hess cancellation residue out of the prefix sums. The
            // last bin is never a split point (`last` bound).
            SplitScanResult r;
            kern.split_scan(hist, m, mask_stride_,
                            static_cast<size_t>(num_bins) - 1,
                            static_cast<double>(n), cand->node_g,
                            cand->node_h, lambda, min_leaf,
                            config_.min_child_weight, &r);
            // Features fold left-to-right with the same strictly-greater
            // replacement the kernel applies per bin, so the lowest
            // feature (then lowest bin) wins ties and the fold runs the
            // same comparisons at every SIMD level and chunk grouping.
            if (r.bin >= 0 && r.num * local.den > local.num * r.den) {
              local.num = r.num;
              local.den = r.den;
              local.feature = static_cast<int>(f);
              local.bin = static_cast<int>(r.bin);
              local.left_g = r.left_g;
              local.left_h = r.left_h;
            }
          }
          return local;
        },
        // Chunks merge in feature order with strictly-greater replacement,
        // so the lowest feature index wins ties under any chunk grouping.
        [](SplitChoice acc, SplitChoice part) {
          return part.num * acc.den > acc.num * part.den ? part : acc;
        });
    cand->feature = best.feature;
    cand->bin = best.bin;
    cand->left_g = best.left_g;
    cand->left_h = best.left_h;
    if (best.feature >= 0) {
      // The winner's true gain, computed once from its prefix sums.
      const double gr = cand->node_g - best.left_g;
      const double hr = cand->node_h - best.left_h;
      cand->gain = 0.5 * (best.left_g * best.left_g / (best.left_h + lambda) +
                          gr * gr / (hr + lambda) - parent_term);
    }
  }

  const BinnedDataset& data_;
  const GbdtConfig& config_;
  const std::vector<uint8_t>& feature_mask_;
  std::vector<size_t> idx_;
  Tree tree_;
  std::vector<uint8_t> split_bin_;  // aligned with tree_.nodes
  std::vector<std::pair<int, double>> split_gains_;
  std::vector<size_t> offset_;
  size_t total_bins_ = 0;
  size_t max_bins_ = 0;
  size_t mask_stride_ = 0;
  // Scratch this builder holds exclusively (gh pairs + histogram pool);
  // see GbdtWorkspace. Build() returns every pooled buffer to the free
  // list before exiting (and checks it did), so the next tree built on
  // the workspace starts from a fully recycled pool.
  GbdtWorkspace& ws_;
};

// Numerically stable in-place softmax over k contiguous scores.
void SoftmaxInPlace(double* p, size_t k) {
  double mx = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < k; ++i) mx = std::max(mx, p[i]);
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    p[i] = std::exp(p[i] - mx);
    sum += p[i];
  }
  for (size_t i = 0; i < k; ++i) p[i] /= sum;
}

// SoA flattening of one built tree for the training-time score updates.
// Traversal by bin index routes identically to Tree::FindLeaf on the raw
// doubles (dataset.h: Bin(f, v) <= b iff v <= UpperEdge(f, b)) but
// compares a uint8 per node instead of re-deriving the comparison from
// doubles — and the flat arrays replace the TreeNode +
// std::vector<double> pointer chase with the dispatched traversal kernel
// (simd_kernels.h), which walks several rows in flight.
struct BinnedTreeArrays {
  std::vector<int32_t> feature, left, right;
  std::vector<uint8_t> split_bin;
  std::vector<double> leaf_value;

  explicit BinnedTreeArrays(const GbdtTreeBuilder::BuiltTree& built) {
    const size_t n = built.tree.nodes.size();
    feature.resize(n);
    left.resize(n);
    right.resize(n);
    split_bin = built.split_bin;
    leaf_value.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const TreeNode& node = built.tree.nodes[i];
      feature[i] = node.feature;
      left[i] = node.left;
      right[i] = node.right;
      leaf_value[i] = node.feature < 0 ? node.value[0] : 0.0;
    }
  }

  BinnedTreeView View() const {
    return {feature.data(), split_bin.data(), left.data(), right.data(),
            leaf_value.data()};
  }
};

// Per-feature base pointers of a BinnedDataset's columns, the form the
// traversal kernel consumes.
std::vector<const uint8_t*> ColumnPointers(const BinnedDataset& binned) {
  std::vector<const uint8_t*> ptrs(binned.columns.size());
  for (size_t f = 0; f < binned.columns.size(); ++f) {
    ptrs[f] = binned.columns[f].data();
  }
  return ptrs;
}

}  // namespace

GbdtClassifier::GbdtClassifier(GbdtConfig config) : config_(config) {}

Status GbdtClassifier::Fit(const Dataset& d) { return FitImpl(d, nullptr); }

Status GbdtClassifier::FitWithValidation(const Dataset& train,
                                         const Dataset& valid) {
  RVAR_RETURN_NOT_OK(valid.Validate());
  if (valid.y.size() != valid.NumRows() || valid.NumRows() == 0) {
    return Status::InvalidArgument("validation set requires labels");
  }
  return FitImpl(train, &valid);
}

Status GbdtClassifier::FitWarmStart(const Dataset& train,
                                    const GbdtClassifier& parent,
                                    const Dataset* valid) {
  if (parent.num_classes_ < 2 || parent.trees_.empty()) {
    return Status::InvalidArgument("warm-start parent has not been fitted");
  }
  if (valid != nullptr) {
    RVAR_RETURN_NOT_OK(valid->Validate());
    if (valid->y.size() != valid->NumRows() || valid->NumRows() == 0) {
      return Status::InvalidArgument("validation set requires labels");
    }
  }
  return FitImpl(train, valid, &parent);
}

Status GbdtClassifier::FitImpl(const Dataset& train, const Dataset* valid,
                               const GbdtClassifier* parent) {
  RVAR_RETURN_NOT_OK(train.Validate());
  if (train.NumRows() == 0) {
    return Status::InvalidArgument("cannot fit GBDT on empty dataset");
  }
  if (train.y.size() != train.NumRows()) {
    return Status::InvalidArgument("classification requires labels");
  }
  if (config_.num_rounds <= 0 || config_.learning_rate <= 0.0) {
    return Status::InvalidArgument("num_rounds and learning_rate must be > 0");
  }
  if (config_.feature_fraction <= 0.0 || config_.feature_fraction > 1.0 ||
      config_.bagging_fraction <= 0.0 || config_.bagging_fraction > 1.0) {
    return Status::InvalidArgument(
        "feature_fraction and bagging_fraction must be in (0,1]");
  }
  if (config_.max_leaves > kMaxGbdtLeaves) {
    return Status::InvalidArgument(StrCat("max_leaves ", config_.max_leaves,
                                          " exceeds ", kMaxGbdtLeaves));
  }
  num_classes_ = train.NumClasses();
  if (parent != nullptr) {
    // A sliding retrain window may miss rare classes entirely; the parent's
    // class count is authoritative as long as no label exceeds it.
    if (num_classes_ > parent->num_classes_) {
      return Status::InvalidArgument(
          StrCat("training window holds ", num_classes_,
                 " classes, warm-start parent was fitted with ",
                 parent->num_classes_));
    }
    num_classes_ = parent->num_classes_;
    if (train.NumFeatures() != parent->importance_.size()) {
      return Status::InvalidArgument(
          StrCat("training window holds ", train.NumFeatures(),
                 " features, warm-start parent was fitted with ",
                 parent->importance_.size()));
    }
  }
  if (num_classes_ < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }

  const size_t n = train.NumRows();
  const size_t nf = train.NumFeatures();
  const size_t kc = static_cast<size_t>(num_classes_);

  RVAR_ASSIGN_OR_RETURN(FeatureBinner binner,
                        FeatureBinner::Fit(train, config_.max_bins));
  RVAR_ASSIGN_OR_RETURN(BinnedDataset binned,
                        BinnedDataset::Make(binner, train));
  // The SIMD dispatch row is resolved once per fit; every row produces
  // bit-identical results (simd_kernels.h), so the level — like the
  // thread count — can never change the model.
  const SimdKernels& kern = ActiveSimdKernels();
  const std::vector<const uint8_t*> col_ptrs = ColumnPointers(binned);

  if (parent != nullptr) {
    // Continue the parent's additive expansion: its base scores and trees
    // carry over, and each row starts from its full raw prediction so new
    // trees fit only the residual gradients.
    base_scores_ = parent->base_scores_;
  } else {
    // Base scores: log class priors.
    base_scores_.assign(kc, 0.0);
    std::vector<double> prior(kc, 1e-9);
    for (int label : train.y) prior[static_cast<size_t>(label)] += 1.0;
    for (size_t k = 0; k < kc; ++k) {
      base_scores_[k] = std::log(prior[k] / static_cast<double>(n));
    }
  }

  // Contiguous n x K raw scores and per-round probabilities, allocated
  // once and reused across rounds (row i's slots start at i*kc). Rows
  // write disjoint slots, so the warm-start initialization parallelizes
  // without any cross-thread accumulation.
  std::vector<double> scores(n * kc);
  if (parent != nullptr) {
    ParallelFor(n, /*grain=*/512, [&](size_t begin, size_t end) {
      std::vector<double> raw;
      for (size_t i = begin; i < end; ++i) {
        parent->PredictRawInto(train.x[i], &raw);
        std::copy(raw.begin(), raw.end(),
                  scores.begin() + static_cast<ptrdiff_t>(i * kc));
      }
    });
  } else {
    for (size_t i = 0; i < n; ++i) {
      std::copy(base_scores_.begin(), base_scores_.end(),
                scores.begin() + static_cast<ptrdiff_t>(i * kc));
    }
  }
  std::vector<double> round_proba(n * kc);

  const size_t parent_rounds =
      parent != nullptr ? parent->trees_[0].size() : 0;
  if (parent != nullptr) {
    trees_ = parent->trees_;
    // Inherited gains stay attributed: the parent's normalized importance
    // seeds the accumulator and new split gains add on top before the
    // final renormalization.
    importance_ = parent->importance_;
  } else {
    trees_.assign(kc, {});
    importance_.assign(nf, 0.0);
  }
  Rng rng(config_.seed);

  // Early-stopping state: validation rows are binned once, and their raw
  // scores advance incrementally with each round's K new trees — O(rounds)
  // tree traversals in total instead of O(rounds^2) re-predictions.
  const bool track_valid =
      valid != nullptr && config_.early_stopping_rounds > 0;
  BinnedDataset valid_binned;
  std::vector<const uint8_t*> valid_col_ptrs;
  std::vector<double> valid_scores;
  if (track_valid) {
    RVAR_ASSIGN_OR_RETURN(valid_binned, BinnedDataset::Make(binner, *valid));
    valid_col_ptrs = ColumnPointers(valid_binned);
    valid_scores.resize(valid->NumRows() * kc);
    if (parent != nullptr) {
      ParallelFor(valid->NumRows(), /*grain=*/512,
                  [&](size_t begin, size_t end) {
        std::vector<double> raw;
        for (size_t i = begin; i < end; ++i) {
          parent->PredictRawInto(valid->x[i], &raw);
          std::copy(raw.begin(), raw.end(),
                    valid_scores.begin() + static_cast<ptrdiff_t>(i * kc));
        }
      });
    } else {
      for (size_t i = 0; i < valid->NumRows(); ++i) {
        std::copy(base_scores_.begin(), base_scores_.end(),
                  valid_scores.begin() + static_cast<ptrdiff_t>(i * kc));
      }
    }
  }

  double best_valid_loss = std::numeric_limits<double>::infinity();
  int best_round = 0;
  int rounds_without_improvement = 0;

  GbdtWorkspaceList workspaces;
  std::vector<GbdtTreeBuilder::BuiltTree> built(kc);
  for (int round = 0; round < config_.num_rounds; ++round) {
    // Per-tree row bagging (without replacement) and feature subsampling,
    // shared across the K class trees of this round.
    std::vector<size_t> sample_idx;
    if (config_.bagging_fraction < 1.0) {
      std::vector<size_t> perm = rng.Permutation(n);
      const size_t take = std::max<size_t>(
          1, static_cast<size_t>(config_.bagging_fraction *
                                 static_cast<double>(n)));
      sample_idx.assign(perm.begin(), perm.begin() + take);
    } else {
      sample_idx.resize(n);
      std::iota(sample_idx.begin(), sample_idx.end(), 0);
    }
    std::vector<uint8_t> feature_mask(nf, 1);
    if (config_.feature_fraction < 1.0) {
      std::fill(feature_mask.begin(), feature_mask.end(), 0);
      const size_t take = std::max<size_t>(
          1, static_cast<size_t>(config_.feature_fraction *
                                 static_cast<double>(nf)));
      std::vector<size_t> perm = rng.Permutation(nf);
      for (size_t i = 0; i < take; ++i) feature_mask[perm[i]] = 1;
    }

    // Class probabilities at the start of the round; all K trees of the
    // round fit gradients computed from these (standard multiclass GBDT).
    // Row-wise work writes to disjoint slots, so it parallelizes without
    // touching the deterministic-reduction machinery.
    ParallelFor(n, /*grain=*/2048, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        double* p = round_proba.data() + i * kc;
        std::copy(scores.begin() + static_cast<ptrdiff_t>(i * kc),
                  scores.begin() + static_cast<ptrdiff_t>((i + 1) * kc), p);
        SoftmaxInPlace(p, kc);
      }
    });

    // The K class trees of a round depend only on round_proba, sample_idx
    // and feature_mask, so they are built concurrently, one class per
    // chunk (DESIGN.md §8). Each tree is built on one thread — the
    // builder's inner ParallelFor/ParallelReduce calls run inline inside
    // the region, with unchanged chunking — so every tree is bit-identical
    // to a serial build. Tasks write only their own built[k] and the
    // workspace they hold.
    ParallelFor(kc, /*grain=*/1, [&](size_t kbegin, size_t kend) {
      std::unique_ptr<GbdtWorkspace> ws = workspaces.Take();
      ws->gh.resize(2 * n);
      for (size_t k = kbegin; k < kend; ++k) {
        for (size_t i = 0; i < n; ++i) {
          const double p = round_proba[i * kc + k];
          const double target =
              static_cast<size_t>(train.y[i]) == k ? 1.0 : 0.0;
          ws->gh[2 * i] = p - target;
          ws->gh[2 * i + 1] = std::max(p * (1.0 - p), 1e-9);
        }
        GbdtTreeBuilder builder(binned, config_, feature_mask, ws.get());
        built[k] = builder.Build(sample_idx);
      }
      workspaces.Give(std::move(ws));
    });

    // Split gains fold in class order, then split order: the same sequence
    // of adds a serial class loop makes, so importance is bit-identical.
    for (const GbdtTreeBuilder::BuiltTree& b : built) {
      for (const auto& [feature, gain] : b.split_gains) {
        importance_[static_cast<size_t>(feature)] += gain;
      }
    }

    // Update scores with the K new trees (all rows, not just the bag) by
    // bin-index traversal over the already-binned columns, through the
    // dispatched blocked-traversal kernel, in one row-parallel pass: all
    // K classes of a row share a cache line of scores, so per-class tasks
    // would false-share it. Each (row, class) slot gets exactly one add,
    // so any blocking is bit-identical to a per-row walk.
    std::vector<BinnedTreeArrays> flat_trees;
    flat_trees.reserve(kc);
    for (const GbdtTreeBuilder::BuiltTree& b : built) {
      flat_trees.emplace_back(b);
    }
    const auto accumulate = [&](const std::vector<const uint8_t*>& cols,
                                std::vector<double>* out, size_t begin,
                                size_t end) {
      for (size_t k = 0; k < kc; ++k) {
        kern.binned_accumulate(flat_trees[k].View(), cols.data(), begin, end,
                               out->data() + k, kc);
      }
    };
    ParallelFor(n, /*grain=*/2048, [&](size_t begin, size_t end) {
      accumulate(col_ptrs, &scores, begin, end);
    });
    if (track_valid) {
      ParallelFor(valid->NumRows(), /*grain=*/512,
                  [&](size_t begin, size_t end) {
        accumulate(valid_col_ptrs, &valid_scores, begin, end);
      });
    }
    for (size_t k = 0; k < kc; ++k) {
      trees_[k].push_back(std::move(built[k].tree));
    }

    if (track_valid) {
      const size_t nv = valid->NumRows();
      // Logloss as a deterministic chunked reduction; each chunk reuses
      // one kc-wide softmax scratch across its rows.
      const double loss_sum = ParallelReduce<double>(
          nv, /*grain=*/512, 0.0,
          [&](size_t begin, size_t end) {
            double local = 0.0;
            std::vector<double> p(kc);
            for (size_t i = begin; i < end; ++i) {
              std::copy(
                  valid_scores.begin() + static_cast<ptrdiff_t>(i * kc),
                  valid_scores.begin() + static_cast<ptrdiff_t>((i + 1) * kc),
                  p.begin());
              SoftmaxInPlace(p.data(), kc);
              const double py =
                  std::max(p[static_cast<size_t>(valid->y[i])], 1e-12);
              local -= std::log(py);
            }
            return local;
          },
          [](double acc, double part) { return acc + part; });
      const double loss = loss_sum / static_cast<double>(nv);
      if (loss < best_valid_loss - 1e-9) {
        best_valid_loss = loss;
        best_round = round + 1;
        rounds_without_improvement = 0;
      } else if (++rounds_without_improvement >=
                 config_.early_stopping_rounds) {
        // Early stopping truncates only rounds added by this fit; the
        // inherited parent rounds are model state, not candidates.
        for (auto& class_trees : trees_) {
          class_trees.resize(parent_rounds + static_cast<size_t>(best_round));
        }
        break;
      }
    }
  }

  // Normalize importance.
  double total = 0.0;
  for (double v : importance_) total += v;
  if (total > 0.0) {
    for (double& v : importance_) v /= total;
  }
  // Trees hold at most max_leaves <= kMaxGbdtLeaves leaves, so this
  // cannot fail.
  return CompileScorer();
}

namespace {

// One split node of the leaf-bitvector scorer, before grouping by feature.
struct ScorerSplit {
  int feature;
  double threshold;
  uint32_t tree;
  uint64_t mask;
};

// Numbers the leaves under `node` (at `depth`, the root's is 0) left to
// right, appending their values to *leaf_value (this tree's start at
// `leaf_base`), and appends one split per internal node whose mask clears
// its left subtree's leaves. A node at depth d has d ancestors, each with
// a sibling subtree, so the tree reaches more than d leaves: failing past
// kMaxGbdtLeaves leaves or that depth bounds both the work and the
// recursion, even for a hostile tree that shares subtrees between parents.
Status CompileNode(const Tree& tree, int node, int depth, uint32_t t,
                   size_t leaf_base, std::vector<ScorerSplit>* splits,
                   std::vector<double>* leaf_value) {
  const size_t lo = leaf_value->size() - leaf_base;
  if (lo == static_cast<size_t>(kMaxGbdtLeaves) || depth == kMaxGbdtLeaves) {
    return Status::InvalidArgument(
        StrCat("tree reaches more than ", kMaxGbdtLeaves, " leaves"));
  }
  const TreeNode& n = tree.nodes[static_cast<size_t>(node)];
  if (n.feature < 0) {
    leaf_value->push_back(n.value[0]);
    return Status::OK();
  }
  RVAR_RETURN_NOT_OK(CompileNode(tree, n.left, depth + 1, t, leaf_base,
                                 splits, leaf_value));
  // The left subtree's leaves are bits [lo, hi), 1 <= hi - lo <= 64.
  const size_t hi = leaf_value->size() - leaf_base;
  const uint64_t left_leaves = (~uint64_t{0} >> (64 - (hi - lo))) << lo;
  splits->push_back({n.feature, n.threshold, t, ~left_leaves});
  return CompileNode(tree, n.right, depth + 1, t, leaf_base, splits,
                     leaf_value);
}

}  // namespace

Status GbdtClassifier::CompileScorer() {
  LeafScorer scorer;
  std::vector<ScorerSplit> splits;
  const size_t kc = trees_.size();
  const size_t rounds = trees_.empty() ? 0 : trees_[0].size();
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t k = 0; k < kc; ++k) {
      const uint32_t t = static_cast<uint32_t>(r * kc + k);
      const size_t base = scorer.leaf_value.size();
      scorer.leaf_begin.push_back(static_cast<uint32_t>(base));
      Status st = CompileNode(trees_[k][r], 0, 0, t, base, &splits,
                              &scorer.leaf_value);
      if (!st.ok()) {
        return Status::InvalidArgument(
            StrCat("class ", k, " round ", r, ": ", st.message()));
      }
    }
  }
  // Stable: equal thresholds keep tree order, so the layout is a pure
  // function of the model (the result does not depend on it — masks AND
  // in any order).
  std::stable_sort(splits.begin(), splits.end(),
                   [](const ScorerSplit& a, const ScorerSplit& b) {
                     return a.feature != b.feature ? a.feature < b.feature
                                                   : a.threshold < b.threshold;
                   });
  const size_t nf =
      splits.empty() ? 0 : static_cast<size_t>(splits.back().feature) + 1;
  scorer.node_begin.assign(nf + 1, 0);
  for (const ScorerSplit& split : splits) {
    ++scorer.node_begin[static_cast<size_t>(split.feature) + 1];
    scorer.node_threshold.push_back(split.threshold);
    scorer.node_tree.push_back(split.tree);
    scorer.node_mask.push_back(split.mask);
  }
  std::partial_sum(scorer.node_begin.begin(), scorer.node_begin.end(),
                   scorer.node_begin.begin());
  scorer_ = std::move(scorer);
  return Status::OK();
}

void GbdtClassifier::ScoreInto(const double* row, double* out) const {
  const LeafScorer& s = scorer_;
  // One word per tree, reused across calls on this thread. Bits past a
  // tree's last leaf are never cleared, and neither is its exit leaf's,
  // so no word reaches zero.
  thread_local std::vector<uint64_t> words;
  words.assign(s.leaf_begin.size(), ~uint64_t{0});
  uint64_t* w = words.data();
  for (size_t f = 0; f + 1 < s.node_begin.size(); ++f) {
    const double x = row[f];
    const size_t end = s.node_begin[f + 1];
    for (size_t i = s.node_begin[f]; i < end && !(x <= s.node_threshold[i]);
         ++i) {
      w[s.node_tree[i]] &= s.node_mask[i];
    }
  }
  const size_t kc = base_scores_.size();
  std::copy(base_scores_.begin(), base_scores_.end(), out);
  // Round-major: the K classes' sums are interleaved, but each still adds
  // its trees in round order.
  for (size_t t = 0; t < s.leaf_begin.size(); t += kc) {
    for (size_t k = 0; k < kc; ++k) {
      out[k] += s.leaf_value[s.leaf_begin[t + k] +
                             static_cast<size_t>(__builtin_ctzll(w[t + k]))];
    }
  }
}

void GbdtClassifier::PredictRawInto(const std::vector<double>& row,
                                    std::vector<double>* out) const {
  RVAR_CHECK(!trees_.empty()) << "PredictRaw before Fit";
  RVAR_CHECK_GE(row.size(), scorer_.node_begin.size() - 1);
  out->resize(base_scores_.size());
  ScoreInto(row.data(), out->data());
}

void GbdtClassifier::PredictProbaInto(const std::vector<double>& row,
                                      std::vector<double>* out) const {
  PredictRawInto(row, out);
  SoftmaxInPlace(out->data(), out->size());
}

void GbdtClassifier::PredictRawBatchInto(
    const std::vector<std::vector<double>>& rows,
    std::vector<double>* out) const {
  RVAR_CHECK(!trees_.empty()) << "PredictRawBatch before Fit";
  const size_t kc = base_scores_.size();
  out->resize(rows.size() * kc);
  // Each row writes only its own slots, so chunking changes nothing.
  ParallelFor(rows.size(), /*grain=*/256, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      RVAR_CHECK_GE(rows[i].size(), scorer_.node_begin.size() - 1);
      ScoreInto(rows[i].data(), out->data() + i * kc);
    }
  });
}

void GbdtClassifier::PredictProbaBatchInto(
    const std::vector<std::vector<double>>& rows,
    std::vector<double>* out) const {
  PredictRawBatchInto(rows, out);
  const size_t kc = base_scores_.size();
  ParallelFor(rows.size(), /*grain=*/2048, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      SoftmaxInPlace(out->data() + i * kc, kc);
    }
  });
}

std::vector<double> GbdtClassifier::PredictRaw(
    const std::vector<double>& row) const {
  std::vector<double> scores;
  PredictRawInto(row, &scores);
  return scores;
}

std::vector<double> GbdtClassifier::PredictProba(
    const std::vector<double>& row) const {
  std::vector<double> scores;
  PredictProbaInto(row, &scores);
  return scores;
}

const std::vector<Tree>& GbdtClassifier::trees_for_class(int k) const {
  RVAR_CHECK(k >= 0 && static_cast<size_t>(k) < trees_.size());
  return trees_[static_cast<size_t>(k)];
}

double GbdtClassifier::base_score(int k) const {
  RVAR_CHECK(k >= 0 && static_cast<size_t>(k) < base_scores_.size());
  return base_scores_[static_cast<size_t>(k)];
}

int GbdtClassifier::rounds_used() const {
  return trees_.empty() ? 0 : static_cast<int>(trees_[0].size());
}

Result<GbdtClassifier> GbdtClassifier::Restore(
    const GbdtConfig& config, int num_classes,
    std::vector<double> base_scores, std::vector<std::vector<Tree>> trees,
    std::vector<double> importance) {
  if (num_classes < 2) {
    return Status::InvalidArgument(
        StrCat("restore needs >= 2 classes, got ", num_classes));
  }
  const size_t kc = static_cast<size_t>(num_classes);
  if (base_scores.size() != kc || trees.size() != kc) {
    return Status::InvalidArgument(
        StrCat("restore holds ", base_scores.size(), " base scores and ",
               trees.size(), " tree stacks for ", num_classes, " classes"));
  }
  for (double s : base_scores) {
    if (!std::isfinite(s)) {
      return Status::InvalidArgument("base scores must be finite");
    }
  }
  for (double g : importance) {
    if (!std::isfinite(g) || g < 0.0) {
      return Status::InvalidArgument(
          "feature importance must be finite and >= 0");
    }
  }
  const int num_features = static_cast<int>(importance.size());
  const size_t rounds = trees[0].size();
  for (size_t k = 0; k < kc; ++k) {
    if (trees[k].size() != rounds) {
      return Status::InvalidArgument(
          StrCat("class ", k, " holds ", trees[k].size(),
                 " rounds, class 0 holds ", rounds));
    }
    for (size_t r = 0; r < rounds; ++r) {
      Status st = ValidateTree(trees[k][r], num_features, 1);
      if (!st.ok()) {
        return Status::InvalidArgument(StrCat("class ", k, " round ", r,
                                              ": ", st.message()));
      }
    }
  }
  GbdtClassifier model(config);
  model.num_classes_ = num_classes;
  model.base_scores_ = std::move(base_scores);
  model.trees_ = std::move(trees);
  model.importance_ = std::move(importance);
  RVAR_RETURN_NOT_OK(model.CompileScorer());
  return model;
}

}  // namespace ml
}  // namespace rvar
