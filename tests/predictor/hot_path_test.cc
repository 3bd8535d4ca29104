/**
 * @file
 * Property tests for the flattened-forest hot path.
 *
 * The solver-facing fast paths (flat preorder walk, branchless
 * quantile network, box-tracked prediction and forest restriction)
 * all promise *bitwise* equality with the original recursive walk —
 * not approximate agreement. Every test here asserts exact double
 * equality against an independent reference, over randomised
 * forests, ensemble sizes and queries.
 */

#include "predictor/random_forest.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace qoserve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Nonlinear 4-feature target: forces deep, varied splits so the
 *  flat walk exercises real branch diversity, not one hot path. */
std::vector<TrainSample>
makeData(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TrainSample> data;
    data.reserve(n);
    for (int i = 0; i < n; ++i) {
        double x0 = rng.uniform(0.0, 10.0);
        double x1 = rng.uniform(0.0, 10.0);
        double x2 = rng.uniform(0.0, 10.0);
        double x3 = rng.uniform(0.0, 10.0);
        TrainSample s;
        s.x = {x0, x1, x2, x3};
        s.y = x0 * x1 + 3.0 * (x2 > 5.0) + 0.2 * x3 * x3 +
              0.3 * rng.normal();
        data.push_back(std::move(s));
    }
    return data;
}

std::vector<double>
randomQuery(Rng &rng)
{
    return {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
            rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
}

/**
 * Independent quantile reference: per-tree recursive predictions,
 * fully sorted, then the documented interpolation
 *   pos = q (n-1); v_lo (1-frac) + v_hi frac.
 * Shares no code with quantileOfPreds — in particular not the sorting
 * network it validates.
 */
double
refQuantile(const RandomForest &forest, const std::vector<double> &x,
            double q)
{
    std::vector<double> preds;
    preds.reserve(forest.numTrees());
    for (std::size_t t = 0; t < forest.numTrees(); ++t)
        preds.push_back(forest.tree(t).predict(x));
    std::sort(preds.begin(), preds.end());
    double pos = q * static_cast<double>(preds.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    auto hi = std::min(lo + 1, preds.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return preds[lo] * (1.0 - frac) + preds[hi] * frac;
}

TEST(HotPath, FlatMeanMatchesRecursiveReferenceBitwise)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        auto data = makeData(1500, seed);
        RandomForest forest;
        forest.fit(data, 100 + seed);
        Rng probe(500 + seed);
        for (int i = 0; i < 400; ++i) {
            auto x = randomQuery(probe);
            // EXPECT_EQ, not NEAR: the flat walk must visit the exact
            // leaves the recursive walk does and sum in tree order.
            EXPECT_EQ(forest.predict(x), forest.predictReference(x));
        }
    }
}

TEST(HotPath, QuantileNetworkMatchesSortedReference)
{
    // The sorting network is built for ForestParams::kNumTrees inputs;
    // over many seeded forests and queries it must place exactly the
    // doubles a full sort places at every interpolated rank.
    for (std::uint64_t seed : {7u, 8u, 9u}) {
        auto data = makeData(1200, seed);
        RandomForest forest;
        forest.fit(data, 11 + seed);
        ASSERT_EQ(forest.numTrees(),
                  static_cast<std::size_t>(ForestParams::kNumTrees));
        Rng probe(1000 + seed);
        for (int i = 0; i < 200; ++i) {
            auto x = randomQuery(probe);
            for (double q : {0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0}) {
                EXPECT_EQ(forest.predictQuantile(x, q),
                          refQuantile(forest, x, q))
                    << "seed=" << seed << " q=" << q;
            }
        }
    }
}

TEST(HotPath, TrackedSupportCertifiesBitwiseReplay)
{
    auto data = makeData(1500, 23);
    RandomForest forest;
    forest.fit(data, 29);

    // An unbounded box keeps every split, so the tracked walk below
    // visits every comparison the full forest makes: the same walk
    // the chunk solver's replay records are built from.
    const double lo[4] = {-kInf, -kInf, -kInf, -kInf};
    const double hi[4] = {kInf, kInf, kInf, kInf};
    RestrictedForest whole;
    FeatureSupport whole_box;
    forest.restrictToBox(lo, hi, 4, whole, whole_box);
    ASSERT_EQ(whole.numNodes(), forest.numFlatNodes());

    Rng probe(31);
    int replays = 0;
    for (int i = 0; i < 200; ++i) {
        auto x = randomQuery(probe);
        FeatureSupport support;
        support.reset(4);
        double base =
            whole.predictQuantileTracked(x.data(), 4, 0.6, support);
        EXPECT_EQ(base, forest.predictQuantile(x.data(), 4, 0.6));
        ASSERT_EQ(support.dims, 4);
        EXPECT_TRUE(support.contains(x.data(), 4));

        // Any point strictly inside the box must reproduce the
        // prediction bit for bit — that is the contract the solver
        // cache's correctness rests on.
        for (int j = 0; j < 8; ++j) {
            std::vector<double> y(4);
            for (int f = 0; f < 4; ++f) {
                double lo = std::max(support.lo[f], -50.0);
                double hi = std::min(support.hi[f], 50.0);
                y[f] = lo + (hi - lo) * probe.uniform(0.25, 0.99);
            }
            if (!support.contains(y.data(), 4))
                continue;
            ++replays;
            EXPECT_EQ(forest.predictQuantile(y.data(), 4, 0.6), base);
        }
    }
    // The boxes are narrow but not degenerate: the sampler must have
    // actually exercised the replay property.
    EXPECT_GT(replays, 100);
}

TEST(HotPath, RestrictedForestExactInsideBox)
{
    auto data = makeData(1500, 37);
    RandomForest forest;
    forest.fit(data, 41);

    Rng probe(43);
    for (int trial = 0; trial < 40; ++trial) {
        // Random box: axes 2 and 3 pinned to a narrow window, axes
        // 0 and 1 left free (the solver's chunk/context plane shape).
        double lo[4] = {-kInf, -kInf, 0.0, 0.0};
        double hi[4] = {kInf, kInf, 0.0, 0.0};
        for (int f = 2; f < 4; ++f) {
            double c = probe.uniform(1.0, 9.0);
            lo[f] = c - probe.uniform(0.1, 1.5);
            hi[f] = c + probe.uniform(0.1, 1.5);
        }

        RestrictedForest restricted;
        FeatureSupport support;
        forest.restrictToBox(lo, hi, 4, restricted, support);
        ASSERT_TRUE(restricted.valid());
        EXPECT_LE(restricted.numNodes(), forest.numFlatNodes());

        for (int i = 0; i < 25; ++i) {
            double x[4];
            x[0] = probe.uniform(0.0, 10.0);
            x[1] = probe.uniform(0.0, 10.0);
            for (int f = 2; f < 4; ++f)
                x[f] = lo[f] + (hi[f] - lo[f]) * probe.uniform(0.05, 1.0);
            ASSERT_TRUE(support.contains(x, 4));
            EXPECT_EQ(restricted.predictQuantile(x, 4, 0.6),
                      forest.predictQuantile(x, 4, 0.6));
        }
    }
}

} // namespace
} // namespace qoserve
