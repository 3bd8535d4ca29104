/**
 * @file
 * Tests for the CART / random-forest regressor.
 */

#include "predictor/random_forest.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace qoserve {
namespace {

std::vector<TrainSample>
makeLinearData(int n, std::uint64_t seed, double noise = 0.0)
{
    // y = 2 x0 + 0.5 x1 over a grid, optional noise.
    Rng rng(seed);
    std::vector<TrainSample> data;
    data.reserve(n);
    for (int i = 0; i < n; ++i) {
        double x0 = rng.uniform(0.0, 10.0);
        double x1 = rng.uniform(0.0, 10.0);
        TrainSample s;
        s.x = {x0, x1};
        s.y = 2.0 * x0 + 0.5 * x1 + noise * rng.normal();
        data.push_back(std::move(s));
    }
    return data;
}

TEST(RegressionTree, FitsConstantTarget)
{
    std::vector<TrainSample> data;
    for (int i = 0; i < 20; ++i)
        data.push_back({{static_cast<double>(i)}, 7.5});
    RegressionTree tree;
    Rng rng(1);
    tree.fit(data, rng);
    EXPECT_DOUBLE_EQ(tree.predict({3.0}), 7.5);
    // No split reduces variance of a constant: single leaf.
    EXPECT_EQ(tree.numNodes(), 1u);
}

TEST(RegressionTree, SeparatesTwoClusters)
{
    std::vector<TrainSample> data;
    for (int i = 0; i < 10; ++i) {
        data.push_back({{1.0 + 0.01 * i}, 10.0});
        data.push_back({{9.0 + 0.01 * i}, 50.0});
    }
    RegressionTree tree;
    Rng rng(2);
    tree.fit(data, rng);
    EXPECT_NEAR(tree.predict({1.0}), 10.0, 1e-9);
    EXPECT_NEAR(tree.predict({9.0}), 50.0, 1e-9);
}

/** Deepest root-to-leaf edge count of @p tree, from its preorder
 *  flattening (a node's children follow it). */
int
treeDepth(const RegressionTree &tree)
{
    std::vector<FlatNode> nodes;
    tree.flattenInto(nodes);
    std::vector<int> depth(nodes.size(), 0);
    int deepest = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        deepest = std::max(deepest, depth[i]);
        if (nodes[i].feature < 0)
            continue;
        depth[i + 1] = depth[i] + 1;
        depth[nodes[i].right] = depth[i] + 1;
    }
    return deepest;
}

TEST(RegressionTree, RespectsMaxDepth)
{
    // Noisy data keeps every node splittable, so only the depth cap
    // stops growth: every path ends at kMaxDepth or above it.
    auto data = makeLinearData(20000, 3, 1.0);
    RegressionTree tree;
    Rng rng(4);
    tree.fit(data, rng);
    EXPECT_EQ(treeDepth(tree), ForestParams::kMaxDepth);

    RandomForest forest;
    forest.fit(data, 5);
    for (std::size_t t = 0; t < forest.numTrees(); ++t)
        EXPECT_LE(treeDepth(forest.tree(t)), ForestParams::kMaxDepth)
            << "tree " << t;
}

TEST(RegressionTree, LearnsSmoothFunction)
{
    auto data = makeLinearData(4000, 5);
    RegressionTree tree;
    Rng rng(6);
    tree.fit(data, rng);

    double max_err = 0.0;
    Rng probe(7);
    for (int i = 0; i < 200; ++i) {
        double x0 = probe.uniform(0.5, 9.5);
        double x1 = probe.uniform(0.5, 9.5);
        double truth = 2.0 * x0 + 0.5 * x1;
        max_err = std::max(max_err,
                           std::abs(tree.predict({x0, x1}) - truth));
    }
    EXPECT_LT(max_err, 2.5);
}

TEST(RandomForest, PredictsMeanOfConstantData)
{
    std::vector<TrainSample> data;
    for (int i = 0; i < 50; ++i)
        data.push_back({{static_cast<double>(i)}, 3.0});
    RandomForest forest;
    forest.fit(data, 11);
    EXPECT_DOUBLE_EQ(forest.predict({25.0}), 3.0);
}

TEST(RandomForest, AccurateOnNoisyLinearData)
{
    auto data = makeLinearData(5000, 13, 0.5);
    RandomForest forest;
    forest.fit(data, 17);

    Rng probe(19);
    double sum_rel = 0.0;
    int n = 300;
    for (int i = 0; i < n; ++i) {
        double x0 = probe.uniform(1.0, 9.0);
        double x1 = probe.uniform(1.0, 9.0);
        double truth = 2.0 * x0 + 0.5 * x1;
        sum_rel += std::abs(forest.predict({x0, x1}) - truth) / truth;
    }
    // §3.6.1 claims < 10% error; the forest should do far better on
    // this easy target.
    EXPECT_LT(sum_rel / n, 0.10);
}

TEST(RandomForest, DeterministicForSeed)
{
    auto data = makeLinearData(1000, 23, 0.2);
    RandomForest a, b;
    a.fit(data, 29);
    b.fit(data, 29);
    for (double x = 0.5; x < 10.0; x += 0.5)
        EXPECT_DOUBLE_EQ(a.predict({x, x}), b.predict({x, x}));
}

TEST(RandomForest, QuantilesOrdered)
{
    auto data = makeLinearData(2000, 31, 1.0);
    RandomForest forest;
    forest.fit(data, 37);
    std::vector<double> x = {5.0, 5.0};
    double q10 = forest.predictQuantile(x, 0.1);
    double q50 = forest.predictQuantile(x, 0.5);
    double q90 = forest.predictQuantile(x, 0.9);
    EXPECT_LE(q10, q50);
    EXPECT_LE(q50, q90);
}

TEST(RandomForest, LowQuantileSitsBelowMean)
{
    // The conservatism mechanism: a sub-median quantile of tree
    // outputs sits at or below the ensemble mean almost always.
    auto data = makeLinearData(3000, 41, 1.0);
    RandomForest forest;
    forest.fit(data, 43);

    Rng probe(47);
    int below = 0, total = 200;
    for (int i = 0; i < total; ++i) {
        std::vector<double> x = {probe.uniform(1.0, 9.0),
                                 probe.uniform(1.0, 9.0)};
        below += forest.predictQuantile(x, 0.25) <= forest.predict(x);
    }
    EXPECT_GT(below, total * 9 / 10);
}

TEST(RandomForest, TrainedFlagAndTreeCount)
{
    RandomForest forest;
    EXPECT_FALSE(forest.trained());
    forest.fit(makeLinearData(100, 53), 59);
    EXPECT_TRUE(forest.trained());
    EXPECT_EQ(forest.numTrees(),
              static_cast<std::size_t>(ForestParams::kNumTrees));
}

} // namespace
} // namespace qoserve
