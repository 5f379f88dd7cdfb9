// GbdtClassifier scores every row through leaf bitvectors compiled from
// its trees. The property suite below bit-compares those scores with a
// plain Tree::FindLeaf walk over randomized ensembles: trees of every
// size from 1 to kMaxGbdtLeaves leaves, balanced-ish and fully
// unbalanced, thresholds shared within and across trees, and rows that sit
// exactly on thresholds or hold NaN, +-inf and -0.0/+0.0. The contract
// tests pin the leaf limit on both ways a model comes to exist: Fit
// refuses a config above it, and decode (through Restore) refuses a tree
// above it, including hostile trees that share subtrees between parents.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/codec.h"
#include "io/serialize.h"
#include "io/snapshot.h"
#include "ml/gbdt.h"
#include "ml/tree.h"

namespace rvar {
namespace ml {
namespace {

constexpr int kFeatures = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Thresholds drawn from a small pool, so trees share them.
const std::vector<double>& ThresholdPool() {
  static const std::vector<double> pool = {-2.5, -1.0, -0.0, 0.0,
                                           0.25, 0.5,  1.0,  3.0};
  return pool;
}

TreeNode Leaf(Rng* rng) {
  TreeNode node;
  node.value = {rng->Normal(0.0, 1.0)};
  node.cover = 1.0;
  return node;
}

enum class Shape { kRandom, kLeftChain, kRightChain };

// Grows a `leaves`-leaf tree by splitting one open leaf at a time, the way
// leaf-wise boosting does; children are appended, so they always follow
// their parent as ValidateTree requires.
Tree RandomTree(int leaves, Shape shape, Rng* rng) {
  Tree tree;
  tree.nodes.push_back(Leaf(rng));
  std::vector<int> open = {0};  // leaf node indices, in no set order
  size_t newest_left = 0;
  while (static_cast<int>(open.size()) < leaves) {
    size_t p = 0;
    switch (shape) {
      case Shape::kRandom:
        p = static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(open.size()) - 1));
        break;
      case Shape::kLeftChain:
        p = newest_left;
        break;
      case Shape::kRightChain:
        p = open.size() - 1;
        break;
    }
    const int node = open[p];
    const int left = static_cast<int>(tree.nodes.size());
    TreeNode& split = tree.nodes[static_cast<size_t>(node)];
    split.feature = static_cast<int>(rng->UniformInt(0, kFeatures - 1));
    split.threshold = ThresholdPool()[static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(ThresholdPool().size()) - 1))];
    split.left = left;
    split.right = left + 1;
    tree.nodes.push_back(Leaf(rng));
    tree.nodes.push_back(Leaf(rng));
    open[p] = left;
    open.push_back(left + 1);
    newest_left = p;
  }
  return tree;
}

// Row values: on a threshold, just beside one, special values, or noise.
double RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 7)) {
    case 0:
    case 1:
      return ThresholdPool()[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(ThresholdPool().size()) - 1))];
    case 2:
      return std::numeric_limits<double>::quiet_NaN();
    case 3:
      return rng->UniformInt(0, 1) == 0 ? kInf : -kInf;
    case 4:
      return rng->UniformInt(0, 1) == 0 ? -0.0 : 0.0;
    case 5:
      return std::nextafter(0.5, rng->UniformInt(0, 1) == 0 ? -kInf : kInf);
    default:
      return rng->Normal(0.0, 2.0);
  }
}

// The reference: each class's base score plus its trees' leaf values in
// round order, walking the Tree structs.
std::vector<double> WalkScores(const GbdtClassifier& model,
                               const std::vector<double>& row) {
  std::vector<double> scores;
  for (int k = 0; k < model.num_classes(); ++k) {
    double score = model.base_score(k);
    for (const Tree& tree : model.trees_for_class(k)) {
      score += tree.nodes[static_cast<size_t>(tree.FindLeaf(row))].value[0];
    }
    scores.push_back(score);
  }
  return scores;
}

void ExpectBitIdentical(const double* got, const std::vector<double>& want,
                        const std::string& where) {
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[k]),
              std::bit_cast<uint64_t>(want[k]))
        << where << " class " << k << ": " << got[k] << " vs " << want[k];
  }
}

GbdtClassifier RestoreOrDie(std::vector<std::vector<Tree>> trees, Rng* rng) {
  const int num_classes = static_cast<int>(trees.size());
  std::vector<double> base_scores;
  for (int k = 0; k < num_classes; ++k) {
    base_scores.push_back(rng->Normal(0.0, 1.0));
  }
  auto model = GbdtClassifier::Restore(
      GbdtConfig{}, num_classes, std::move(base_scores), std::move(trees),
      std::vector<double>(kFeatures, 1.0 / kFeatures));
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(*model);
}

TEST(GbdtScorerPropertyTest, ScoresBitIdenticalToTreeWalk) {
  constexpr int kClasses = 3;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Shape shape = static_cast<Shape>(seed % 3);
    // Tree (k, r) holds 1 + (r * K + k) % 64 leaves (seeds 1-3) or a
    // random count (seeds 4-6): every size from 1 to 64 appears.
    const int rounds = seed <= 3 ? 22 : 8;
    std::vector<std::vector<Tree>> trees(kClasses);
    for (int r = 0; r < rounds; ++r) {
      for (int k = 0; k < kClasses; ++k) {
        const int leaves =
            seed <= 3 ? 1 + (r * kClasses + k) % kMaxGbdtLeaves
                      : static_cast<int>(rng.UniformInt(1, kMaxGbdtLeaves));
        trees[static_cast<size_t>(k)].push_back(
            RandomTree(leaves, shape, &rng));
      }
    }
    const GbdtClassifier model = RestoreOrDie(std::move(trees), &rng);

    std::vector<std::vector<double>> rows(400);
    for (std::vector<double>& row : rows) {
      for (int f = 0; f < kFeatures; ++f) row.push_back(RandomValue(&rng));
    }
    std::vector<double> batch;
    model.PredictRawBatchInto(rows, &batch);
    ASSERT_EQ(batch.size(), rows.size() * kClasses);
    std::vector<double> raw;
    for (size_t i = 0; i < rows.size(); ++i) {
      const std::vector<double> want = WalkScores(model, rows[i]);
      const std::string where =
          "seed " + std::to_string(seed) + " row " + std::to_string(i);
      model.PredictRawInto(rows[i], &raw);
      ASSERT_EQ(raw.size(), want.size());
      ExpectBitIdentical(raw.data(), want, where);
      ExpectBitIdentical(batch.data() + i * kClasses, want, where + " batch");
    }
  }
}

TEST(GbdtScorerPropertyTest, SingleLeafTreesAddTheirValue) {
  Rng rng(7);
  std::vector<std::vector<Tree>> trees(2);
  for (auto& class_trees : trees) {
    for (int r = 0; r < 5; ++r) {
      class_trees.push_back(RandomTree(1, Shape::kRandom, &rng));
    }
  }
  const GbdtClassifier model = RestoreOrDie(std::move(trees), &rng);
  // No tree splits, so any row width is enough — even an empty one.
  for (const std::vector<double>& row :
       {std::vector<double>{}, std::vector<double>(kFeatures, 1.0)}) {
    const std::vector<double> raw = model.PredictRaw(row);
    ExpectBitIdentical(raw.data(), WalkScores(model, row), "single-leaf");
  }
}

// --- The kMaxGbdtLeaves contract ----------------------------------------

Dataset Tabular(int rows, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < rows; ++i) {
    std::vector<double> row(kFeatures);
    for (double& v : row) v = rng.Normal(0.0, 1.0);
    d.y.push_back(row[0] + 0.5 * row[1] > 0.0 ? 1 : 0);
    d.x.push_back(std::move(row));
  }
  return d;
}

TEST(GbdtLeafLimitTest, FitRejectsMaxLeavesAboveLimit) {
  const Dataset d = Tabular(200, 11);
  GbdtClassifier over({.num_rounds = 2, .max_leaves = kMaxGbdtLeaves + 1});
  const Status st = over.Fit(d);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();

  GbdtClassifier at_limit({.num_rounds = 2, .max_leaves = kMaxGbdtLeaves});
  EXPECT_TRUE(at_limit.Fit(d).ok());
}

// Record layout of one tree in a kGbdtClassifier snapshot (io/serialize.cc).
std::string TreeRecord(const Tree& tree) {
  io::BinaryWriter w;
  w.PutU64(tree.nodes.size());
  for (const TreeNode& node : tree.nodes) {
    w.PutI32(node.feature);
    w.PutDouble(node.threshold);
    w.PutI32(node.left);
    w.PutI32(node.right);
    w.PutDouble(node.cover);
    w.PutDoubleVector(node.value);
  }
  return w.bytes();
}

// A valid 2-class, 1-round image whose class-0 tree is replaced by `tree`.
std::string ImageWithTree(const Tree& tree) {
  Rng rng(13);
  std::vector<std::vector<Tree>> trees(2);
  trees[0].push_back(RandomTree(4, Shape::kRandom, &rng));
  trees[1].push_back(RandomTree(4, Shape::kRandom, &rng));
  const std::string image =
      io::EncodeGbdtClassifier(RestoreOrDie(std::move(trees), &rng));
  auto reader =
      io::SnapshotReader::Open(image, io::PayloadKind::kGbdtClassifier);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_records(), 3u);
  io::SnapshotWriter writer(io::PayloadKind::kGbdtClassifier);
  writer.AddRecord(*reader->Record(0));
  writer.AddRecord(TreeRecord(tree));
  writer.AddRecord(*reader->Record(2));
  return writer.Finish();
}

TEST(GbdtLeafLimitTest, DecodeRefusesTreeAboveLimit) {
  Rng rng(17);
  const Tree at_limit = RandomTree(kMaxGbdtLeaves, Shape::kRandom, &rng);
  EXPECT_TRUE(io::DecodeGbdtClassifier(ImageWithTree(at_limit)).ok());

  const Tree over = RandomTree(kMaxGbdtLeaves + 1, Shape::kRandom, &rng);
  const auto decoded = io::DecodeGbdtClassifier(ImageWithTree(over));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
}

TEST(GbdtLeafLimitTest, DecodeRefusesSharedSubtreesPastLimit) {
  // Node i splits into i + 1 and i + 2: every child index is forward and
  // distinct, so ValidateTree accepts it, but the paths multiply like
  // Fibonacci numbers — about 10^12 leaves reachable from 60 nodes.
  Tree dag;
  constexpr int kInternal = 58;
  for (int i = 0; i < kInternal; ++i) {
    dag.nodes.push_back({i % kFeatures, 0.0, i + 1, i + 2, {0.0}, 1.0});
  }
  dag.nodes.push_back({-1, 0.0, -1, -1, {1.0}, 1.0});
  dag.nodes.push_back({-1, 0.0, -1, -1, {2.0}, 1.0});
  ASSERT_TRUE(ValidateTree(dag, kFeatures, 1).ok());
  const auto decoded = io::DecodeGbdtClassifier(ImageWithTree(dag));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();

  // A left chain 200,000 nodes deep whose right children all share one
  // leaf: refused by depth, before a walk to the chain's end could
  // overflow the stack.
  Tree chain;
  constexpr int kChain = 200000;
  for (int i = 0; i < kChain; ++i) {
    chain.nodes.push_back({0, 0.0, i + 1, kChain + 1, {0.0}, 1.0});
  }
  chain.nodes.push_back({-1, 0.0, -1, -1, {1.0}, 1.0});
  chain.nodes.push_back({-1, 0.0, -1, -1, {2.0}, 1.0});
  ASSERT_TRUE(ValidateTree(chain, kFeatures, 1).ok());
  const auto deep = io::DecodeGbdtClassifier(ImageWithTree(chain));
  ASSERT_FALSE(deep.ok());
  EXPECT_TRUE(deep.status().IsInvalidArgument()) << deep.status().ToString();
}

}  // namespace
}  // namespace ml
}  // namespace rvar
