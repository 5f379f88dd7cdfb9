#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/strings.h"

namespace rvar {
namespace ml {

int Tree::FindLeaf(const std::vector<double>& row) const {
  RVAR_CHECK(!nodes.empty());
  int i = 0;
  while (nodes[static_cast<size_t>(i)].feature >= 0) {
    const TreeNode& n = nodes[static_cast<size_t>(i)];
    RVAR_CHECK_LT(static_cast<size_t>(n.feature), row.size());
    i = row[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return i;
}

const std::vector<double>& Tree::PredictValue(
    const std::vector<double>& row) const {
  return nodes[static_cast<size_t>(FindLeaf(row))].value;
}

double Tree::PredictScalar(const std::vector<double>& row, int k) const {
  const std::vector<double>& v = PredictValue(row);
  RVAR_CHECK_LT(static_cast<size_t>(k), v.size());
  return v[static_cast<size_t>(k)];
}

int Tree::Depth() const {
  if (nodes.empty()) return -1;
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack;
  stack.reserve(nodes.size());
  stack.push_back({0, 0});
  while (!stack.empty()) {
    auto [i, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const TreeNode& n = nodes[static_cast<size_t>(i)];
    if (n.feature >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

int Tree::NumLeaves() const {
  int leaves = 0;
  for (const TreeNode& n : nodes) leaves += (n.feature < 0);
  return leaves;
}

void FlatForest::Add(const Tree& tree) {
  RVAR_CHECK(!tree.empty());
  if (roots_.empty()) {
    value_stride_ = tree.nodes[0].value.size();
    RVAR_CHECK_GT(value_stride_, 0u);
  }
  const int32_t base = static_cast<int32_t>(feature_.size());
  roots_.push_back(base);
  feature_.reserve(feature_.size() + tree.nodes.size());
  for (const TreeNode& node : tree.nodes) {
    RVAR_CHECK_EQ(node.value.size(), value_stride_);
    feature_.push_back(node.feature);
    threshold_.push_back(node.threshold);
    // Children are tree-local indices; relocate to forest-wide ones.
    left_.push_back(node.feature >= 0 ? base + node.left : -1);
    right_.push_back(node.feature >= 0 ? base + node.right : -1);
    value_.insert(value_.end(), node.value.begin(), node.value.end());
    if (node.feature >= 0) {
      num_features_ = std::max(num_features_,
                               static_cast<size_t>(node.feature) + 1);
    }
  }
}

Result<BinnedDataset> BinnedDataset::Make(const FeatureBinner& binner,
                                          const Dataset& d) {
  if (binner.NumFeatures() != d.NumFeatures()) {
    return Status::InvalidArgument(
        StrCat("binner has ", binner.NumFeatures(), " features, dataset has ",
               d.NumFeatures()));
  }
  BinnedDataset out;
  out.binner = &binner;
  out.columns = binner.BinColumns(d);
  out.num_rows = d.NumRows();
  return out;
}

namespace {

// Shared recursive induction over an in-place-partitioned index array.
// Subclasses supply the impurity criterion via per-bin histograms.
class TreeBuilder {
 public:
  TreeBuilder(const BinnedDataset& data, const TreeConfig& config, Rng* rng,
              std::vector<double>* split_gain)
      : data_(data), config_(config), rng_(rng), split_gain_(split_gain) {
    if (split_gain_ != nullptr) {
      split_gain_->assign(data_.binner->NumFeatures(), 0.0);
    }
  }

  virtual ~TreeBuilder() = default;

  Result<Tree> Build(std::vector<size_t> sample_idx) {
    if (sample_idx.empty()) {
      return Status::InvalidArgument("cannot train a tree on zero samples");
    }
    for (size_t i : sample_idx) {
      if (i >= data_.num_rows) {
        return Status::OutOfRange(StrCat("sample index ", i, " out of range"));
      }
    }
    total_samples_ = static_cast<double>(sample_idx.size());
    idx_ = std::move(sample_idx);
    tree_.nodes.clear();
    BuildNode(0, idx_.size(), 0);
    return std::move(tree_);
  }

 protected:
  // Recomputes node totals over idx_[begin, end).
  virtual void AccumulateNode(size_t begin, size_t end) = 0;
  // Impurity of the current node (Gini / variance).
  virtual double NodeImpurity() const = 0;
  // Leaf payload of the current node.
  virtual std::vector<double> NodeValue() const = 0;
  // Best split of feature f over idx_[begin, end): returns impurity
  // decrease (or negative if none) and sets *out_bin.
  virtual double BestSplit(size_t f, size_t begin, size_t end,
                           int* out_bin) = 0;

  const BinnedDataset& data_;
  std::vector<size_t> idx_;  // working index array, partitioned in place

 private:
  int BuildNode(size_t begin, size_t end, int depth) {
    const size_t n = end - begin;
    const int node_id = static_cast<int>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    AccumulateNode(begin, end);
    tree_.nodes[static_cast<size_t>(node_id)].value = NodeValue();
    tree_.nodes[static_cast<size_t>(node_id)].cover = static_cast<double>(n);

    if (depth >= config_.max_depth ||
        n < static_cast<size_t>(config_.min_samples_split) ||
        NodeImpurity() <= 0.0) {
      return node_id;
    }

    // Candidate features (random subset when max_features is set).
    const size_t nf = data_.binner->NumFeatures();
    std::vector<size_t> features(nf);
    std::iota(features.begin(), features.end(), 0);
    size_t k = nf;
    if (config_.max_features > 0 &&
        static_cast<size_t>(config_.max_features) < nf) {
      k = static_cast<size_t>(config_.max_features);
      for (size_t i = 0; i < k; ++i) {
        const size_t j = static_cast<size_t>(rng_->UniformInt(
            static_cast<int64_t>(i), static_cast<int64_t>(nf) - 1));
        std::swap(features[i], features[j]);
      }
    }

    double best_gain = -1.0;
    int best_feature = -1;
    int best_bin = -1;
    for (size_t fi = 0; fi < k; ++fi) {
      const size_t f = features[fi];
      if (data_.binner->NumBins(f) < 2) continue;
      int bin = -1;
      const double gain = BestSplit(f, begin, end, &bin);
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_bin = bin;
      }
    }
    if (best_feature < 0 || best_gain < config_.min_gain) return node_id;

    const std::vector<uint8_t>& col =
        data_.columns[static_cast<size_t>(best_feature)];
    auto mid_it =
        std::partition(idx_.begin() + static_cast<ptrdiff_t>(begin),
                       idx_.begin() + static_cast<ptrdiff_t>(end),
                       [&](size_t row) {
                         return col[row] <= static_cast<uint8_t>(best_bin);
                       });
    const size_t mid = static_cast<size_t>(mid_it - idx_.begin());
    if (mid == begin || mid == end) return node_id;
    if (mid - begin < static_cast<size_t>(config_.min_samples_leaf) ||
        end - mid < static_cast<size_t>(config_.min_samples_leaf)) {
      return node_id;
    }

    if (split_gain_ != nullptr) {
      // Impurity-decrease importance weighted by the node's sample share.
      (*split_gain_)[static_cast<size_t>(best_feature)] +=
          best_gain * static_cast<double>(n) / total_samples_;
    }

    tree_.nodes[static_cast<size_t>(node_id)].feature = best_feature;
    tree_.nodes[static_cast<size_t>(node_id)].threshold =
        data_.binner->UpperEdge(static_cast<size_t>(best_feature), best_bin);
    const int left = BuildNode(begin, mid, depth + 1);
    tree_.nodes[static_cast<size_t>(node_id)].left = left;
    const int right = BuildNode(mid, end, depth + 1);
    tree_.nodes[static_cast<size_t>(node_id)].right = right;
    // Re-establish this node's totals are irrelevant now; children own them.
    return node_id;
  }

  const TreeConfig& config_;
  Rng* rng_;
  std::vector<double>* split_gain_;
  Tree tree_;
  double total_samples_ = 0.0;
};

class ClassificationBuilder : public TreeBuilder {
 public:
  ClassificationBuilder(const BinnedDataset& data,
                        const std::vector<int>& labels, int num_classes,
                        const TreeConfig& config, Rng* rng,
                        std::vector<double>* split_gain)
      : TreeBuilder(data, config, rng, split_gain),
        labels_(labels),
        num_classes_(static_cast<size_t>(num_classes)) {}

 protected:
  void AccumulateNode(size_t begin, size_t end) override {
    node_counts_.assign(num_classes_, 0.0);
    node_n_ = static_cast<double>(end - begin);
    for (size_t i = begin; i < end; ++i) {
      node_counts_[static_cast<size_t>(labels_[idx_[i]])] += 1.0;
    }
  }

  double NodeImpurity() const override { return Gini(node_counts_, node_n_); }

  std::vector<double> NodeValue() const override {
    std::vector<double> v = node_counts_;
    for (double& c : v) c /= node_n_;
    return v;
  }

  double BestSplit(size_t f, size_t begin, size_t end, int* out_bin) override {
    const int num_bins = data_.binner->NumBins(f);
    hist_.assign(static_cast<size_t>(num_bins) * num_classes_, 0.0);
    const std::vector<uint8_t>& col = data_.columns[f];
    for (size_t i = begin; i < end; ++i) {
      const size_t row = idx_[i];
      hist_[static_cast<size_t>(col[row]) * num_classes_ +
            static_cast<size_t>(labels_[row])] += 1.0;
    }

    const double parent = Gini(node_counts_, node_n_);
    std::vector<double> left(num_classes_, 0.0);
    double left_n = 0.0;
    double best_gain = -1.0;
    *out_bin = -1;
    for (int b = 0; b + 1 < num_bins; ++b) {
      for (size_t c = 0; c < num_classes_; ++c) {
        const double cnt = hist_[static_cast<size_t>(b) * num_classes_ + c];
        left[c] += cnt;
        left_n += cnt;
      }
      if (left_n <= 0.0 || left_n >= node_n_) continue;
      const double right_n = node_n_ - left_n;
      double left_sq = 0.0, right_sq = 0.0;
      for (size_t c = 0; c < num_classes_; ++c) {
        const double rc = node_counts_[c] - left[c];
        left_sq += left[c] * left[c];
        right_sq += rc * rc;
      }
      const double child = (left_n / node_n_) * (1.0 - left_sq / (left_n * left_n)) +
                           (right_n / node_n_) * (1.0 - right_sq / (right_n * right_n));
      const double gain = parent - child;
      if (gain > best_gain) {
        best_gain = gain;
        *out_bin = b;
      }
    }
    return best_gain;
  }

 private:
  static double Gini(const std::vector<double>& counts, double n) {
    if (n <= 0.0) return 0.0;
    double sq = 0.0;
    for (double c : counts) sq += c * c;
    return 1.0 - sq / (n * n);
  }

  const std::vector<int>& labels_;
  size_t num_classes_;
  std::vector<double> node_counts_;
  std::vector<double> hist_;
  double node_n_ = 0.0;
};

class RegressionBuilder : public TreeBuilder {
 public:
  RegressionBuilder(const BinnedDataset& data,
                    const std::vector<double>& targets,
                    const TreeConfig& config, Rng* rng,
                    std::vector<double>* split_gain)
      : TreeBuilder(data, config, rng, split_gain), targets_(targets) {}

 protected:
  void AccumulateNode(size_t begin, size_t end) override {
    node_n_ = static_cast<double>(end - begin);
    node_sum_ = 0.0;
    node_sumsq_ = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const double t = targets_[idx_[i]];
      node_sum_ += t;
      node_sumsq_ += t * t;
    }
  }

  double NodeImpurity() const override {
    return Variance(node_sum_, node_sumsq_, node_n_);
  }

  std::vector<double> NodeValue() const override {
    return {node_n_ > 0.0 ? node_sum_ / node_n_ : 0.0};
  }

  double BestSplit(size_t f, size_t begin, size_t end, int* out_bin) override {
    const int num_bins = data_.binner->NumBins(f);
    hist_n_.assign(static_cast<size_t>(num_bins), 0.0);
    hist_sum_.assign(static_cast<size_t>(num_bins), 0.0);
    hist_sumsq_.assign(static_cast<size_t>(num_bins), 0.0);
    const std::vector<uint8_t>& col = data_.columns[f];
    for (size_t i = begin; i < end; ++i) {
      const size_t row = idx_[i];
      const size_t b = col[row];
      const double t = targets_[row];
      hist_n_[b] += 1.0;
      hist_sum_[b] += t;
      hist_sumsq_[b] += t * t;
    }

    const double parent = NodeImpurity();
    double ln = 0.0, lsum = 0.0, lsumsq = 0.0;
    double best_gain = -1.0;
    *out_bin = -1;
    for (int b = 0; b + 1 < num_bins; ++b) {
      ln += hist_n_[static_cast<size_t>(b)];
      lsum += hist_sum_[static_cast<size_t>(b)];
      lsumsq += hist_sumsq_[static_cast<size_t>(b)];
      if (ln <= 0.0 || ln >= node_n_) continue;
      const double rn = node_n_ - ln;
      const double rsum = node_sum_ - lsum;
      const double rsumsq = node_sumsq_ - lsumsq;
      const double child = (ln / node_n_) * Variance(lsum, lsumsq, ln) +
                           (rn / node_n_) * Variance(rsum, rsumsq, rn);
      const double gain = parent - child;
      if (gain > best_gain) {
        best_gain = gain;
        *out_bin = b;
      }
    }
    return best_gain;
  }

 private:
  static double Variance(double sum, double sumsq, double n) {
    if (n <= 0.0) return 0.0;
    const double mean = sum / n;
    const double v = sumsq / n - mean * mean;
    return v > 0.0 ? v : 0.0;
  }

  const std::vector<double>& targets_;
  double node_n_ = 0.0, node_sum_ = 0.0, node_sumsq_ = 0.0;
  std::vector<double> hist_n_, hist_sum_, hist_sumsq_;
};

}  // namespace

Result<Tree> TrainClassificationTree(const BinnedDataset& data,
                                     const std::vector<int>& labels,
                                     int num_classes,
                                     const std::vector<size_t>& sample_idx,
                                     const TreeConfig& config, Rng* rng,
                                     std::vector<double>* split_gain) {
  RVAR_CHECK(rng != nullptr);
  if (num_classes < 2) {
    return Status::InvalidArgument(
        StrCat("need >= 2 classes, got ", num_classes));
  }
  if (labels.size() != data.num_rows) {
    return Status::InvalidArgument("labels size != dataset rows");
  }
  for (int label : labels) {
    if (label < 0 || label >= num_classes) {
      return Status::OutOfRange(StrCat("label ", label, " outside [0,",
                                       num_classes, ")"));
    }
  }
  ClassificationBuilder builder(data, labels, num_classes, config, rng,
                                split_gain);
  return builder.Build(sample_idx);
}

Result<Tree> TrainRegressionTree(const BinnedDataset& data,
                                 const std::vector<double>& targets,
                                 const std::vector<size_t>& sample_idx,
                                 const TreeConfig& config, Rng* rng,
                                 std::vector<double>* split_gain) {
  RVAR_CHECK(rng != nullptr);
  if (targets.size() != data.num_rows) {
    return Status::InvalidArgument("targets size != dataset rows");
  }
  RegressionBuilder builder(data, targets, config, rng, split_gain);
  return builder.Build(sample_idx);
}

Status ValidateTree(const Tree& tree, int num_features, size_t value_size) {
  if (tree.empty()) {
    return Status::InvalidArgument("tree has no nodes");
  }
  const int n = static_cast<int>(tree.nodes.size());
  for (int i = 0; i < n; ++i) {
    const TreeNode& node = tree.nodes[static_cast<size_t>(i)];
    if (node.value.size() != value_size) {
      return Status::InvalidArgument(
          StrCat("node ", i, " value has ", node.value.size(),
                 " entries, expected ", value_size));
    }
    for (double v : node.value) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            StrCat("node ", i, " holds a non-finite value"));
      }
    }
    if (!std::isfinite(node.cover) || node.cover < 0.0) {
      return Status::InvalidArgument(
          StrCat("node ", i, " cover must be finite and >= 0"));
    }
    if (node.feature == -1) {
      if (node.left != -1 || node.right != -1) {
        return Status::InvalidArgument(
            StrCat("leaf node ", i, " has children"));
      }
      continue;
    }
    if (node.feature < 0 || node.feature >= num_features) {
      return Status::InvalidArgument(
          StrCat("node ", i, " splits on unknown feature ", node.feature,
                 " (model has ", num_features, ")"));
    }
    if (!std::isfinite(node.threshold)) {
      return Status::InvalidArgument(
          StrCat("node ", i, " threshold is non-finite"));
    }
    // Children must point strictly forward: this is how trained trees are
    // laid out, and it makes traversal termination a static guarantee.
    if (node.left <= i || node.left >= n || node.right <= i ||
        node.right >= n || node.left == node.right) {
      return Status::InvalidArgument(
          StrCat("node ", i, " has malformed children (", node.left, ", ",
                 node.right, ") in a ", n, "-node tree"));
    }
  }
  return Status::OK();
}

}  // namespace ml
}  // namespace rvar
