// The compiled inference layouts must be pure re-layouts: every
// prediction routed through FlatForest (the random forests' SoA node
// arrays) or through GbdtClassifier's leaf bitvectors is bit-identical to
// walking the original Tree node structs, across the tier-1 model
// families (GBDT classifier, random forest classifier/regressor) and
// across the serialize/restore path.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "io/serialize.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/tree.h"

namespace rvar {
namespace ml {
namespace {

Dataset MakeTabular(int rows, int features, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < rows; ++i) {
    std::vector<double> row(static_cast<size_t>(features));
    for (double& v : row) v = rng.Normal(0.0, 1.0);
    const double score = row[0] + 0.5 * row[1];
    d.y.push_back(score > 0.5 ? 2 : (score > -0.5 ? 1 : 0));
    d.target.push_back(score + rng.Normal(0.0, 0.1));
    d.x.push_back(std::move(row));
  }
  return d;
}

TEST(FlatForestTest, HandBuiltTreeRoutesIdentically) {
  // x0 <= 0.5 ? (x1 <= -1 ? 1.0 : 2.0) : 3.0, values on every node as
  // trained trees have them.
  Tree tree;
  tree.nodes.resize(5);
  tree.nodes[0] = {0, 0.5, 1, 2, {0.0}, 4.0};
  tree.nodes[1] = {1, -1.0, 3, 4, {1.5}, 2.0};
  tree.nodes[2] = {-1, 0.0, -1, -1, {3.0}, 2.0};
  tree.nodes[3] = {-1, 0.0, -1, -1, {1.0}, 1.0};
  tree.nodes[4] = {-1, 0.0, -1, -1, {2.0}, 1.0};

  FlatForest flat;
  flat.Add(tree);
  ASSERT_EQ(flat.num_trees(), 1u);
  EXPECT_EQ(flat.value_stride(), 1u);
  EXPECT_EQ(flat.num_features(), 2u);

  Rng rng(51);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> row = {rng.Normal(0.0, 1.0),
                                     rng.Normal(0.0, 1.0)};
    EXPECT_EQ(flat.PredictScalar(0, row.data()), tree.PredictScalar(row));
  }
  // Boundary rows exercise the <= comparisons exactly.
  const std::vector<double> on_split = {0.5, -1.0};
  EXPECT_EQ(flat.PredictScalar(0, on_split.data()),
            tree.PredictScalar(on_split));
}

TEST(FlatForestTest, GbdtRawScoresMatchTreeWalk) {
  const Dataset d = MakeTabular(400, 8, 52);
  GbdtClassifier model({.num_rounds = 12});
  ASSERT_TRUE(model.Fit(d).ok());
  for (size_t i = 0; i < d.NumRows(); i += 7) {
    // PredictRaw runs over the compiled leaf bitvectors; re-derive the
    // same scores by walking the Tree structs.
    const std::vector<double> fast = model.PredictRaw(d.x[i]);
    ASSERT_EQ(fast.size(), static_cast<size_t>(model.num_classes()));
    for (int k = 0; k < model.num_classes(); ++k) {
      double expected = model.base_score(k);
      for (const Tree& tree : model.trees_for_class(k)) {
        expected += tree.PredictScalar(d.x[i]);
      }
      EXPECT_EQ(fast[static_cast<size_t>(k)], expected) << "row " << i;
    }
  }
}

TEST(FlatForestTest, GbdtPredictIntoMatchesPredictProba) {
  const Dataset d = MakeTabular(300, 6, 53);
  GbdtClassifier model({.num_rounds = 10});
  ASSERT_TRUE(model.Fit(d).ok());
  std::vector<double> scratch;
  for (size_t i = 0; i < d.NumRows(); i += 11) {
    model.PredictProbaInto(d.x[i], &scratch);
    EXPECT_EQ(scratch, model.PredictProba(d.x[i])) << "row " << i;
  }
}

TEST(FlatForestTest, GbdtSurvivesSerializeRestore) {
  const Dataset d = MakeTabular(300, 6, 54);
  GbdtClassifier model({.num_rounds = 10});
  ASSERT_TRUE(model.Fit(d).ok());
  const std::string image = io::EncodeGbdtClassifier(model);
  auto restored = io::DecodeGbdtClassifier(image);
  ASSERT_TRUE(restored.ok());
  for (size_t i = 0; i < d.NumRows(); i += 13) {
    EXPECT_EQ(restored->PredictRaw(d.x[i]), model.PredictRaw(d.x[i]));
  }
}

TEST(FlatForestTest, ForestClassifierMatchesTreeWalk) {
  const Dataset d = MakeTabular(300, 6, 55);
  ForestConfig config;
  config.num_trees = 20;
  RandomForestClassifier model(config);
  ASSERT_TRUE(model.Fit(d).ok());
  for (size_t i = 0; i < d.NumRows(); i += 7) {
    const std::vector<double> fast = model.PredictProba(d.x[i]);
    std::vector<double> expected(fast.size(), 0.0);
    for (const Tree& tree : model.trees()) {
      const std::vector<double>& leaf = tree.PredictValue(d.x[i]);
      for (size_t k = 0; k < expected.size(); ++k) expected[k] += leaf[k];
    }
    const double inv = 1.0 / static_cast<double>(model.trees().size());
    for (double& p : expected) p *= inv;
    EXPECT_EQ(fast, expected) << "row " << i;
  }
}

TEST(FlatForestTest, ForestRegressorMatchesTreeWalk) {
  const Dataset d = MakeTabular(300, 6, 56);
  ForestConfig config;
  config.num_trees = 20;
  RandomForestRegressor model(config);
  ASSERT_TRUE(model.Fit(d).ok());
  for (size_t i = 0; i < d.NumRows(); i += 7) {
    double expected = 0.0;
    for (const Tree& tree : model.trees()) {
      expected += tree.PredictScalar(d.x[i]);
    }
    expected /= static_cast<double>(model.trees().size());
    EXPECT_EQ(model.Predict(d.x[i]), expected) << "row " << i;
  }
}

}  // namespace
}  // namespace ml
}  // namespace rvar
