/**
 * @file
 * Tests for percentile utilities.
 */

#include "metrics/percentile.hh"

#include <gtest/gtest.h>

#include <limits>

namespace qoserve {
namespace {

TEST(Percentile, EmptyReturnsZero)
{
    EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, SingleElement)
{
    EXPECT_EQ(percentile({42.0}, 0.0), 42.0);
    EXPECT_EQ(percentile({42.0}, 50.0), 42.0);
    EXPECT_EQ(percentile({42.0}, 100.0), 42.0);
}

TEST(Percentile, EndpointsAreMinAndMax)
{
    std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_EQ(percentile(v, 0.0), 1.0);
    EXPECT_EQ(percentile(v, 100.0), 5.0);
}

TEST(Percentile, MedianInterpolates)
{
    EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 50.0), 2.0);
}

TEST(Percentile, UnsortedInputHandled)
{
    std::vector<double> v = {9.0, 1.0, 5.0, 3.0, 7.0};
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
}

TEST(Percentile, SortedVariantMatches)
{
    std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(percentileSorted(sorted, p),
                         percentile(sorted, p));
}

TEST(Percentile, P99OnLargeUniformSample)
{
    std::vector<double> v(10000);
    for (int i = 0; i < 10000; ++i)
        v[i] = static_cast<double>(i);
    EXPECT_NEAR(percentile(v, 99.0), 9899.0, 1.0);
}

TEST(Percentile, MonotoneInP)
{
    std::vector<double> v = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
    double prev = percentile(v, 0.0);
    for (double p = 5.0; p <= 100.0; p += 5.0) {
        double cur = percentile(v, p);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

TEST(Percentile, ExactRankBesideInfinityIsNotNan)
{
    // Shed, rejected and retry-exhausted requests have infinite
    // latency; an exact rank must return its own sample.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(percentileSorted({1.0, inf}, 0.0), 1.0);
    EXPECT_EQ(percentileSorted({inf, inf, inf}, 50.0), inf);
    EXPECT_EQ(percentileSorted({1.0, inf}, 50.0), inf);
}

TEST(Percentile, SortedVariantSharesTheDegenerateSentinels)
{
    // The documented convention call sites rely on (no empty/size-1
    // guards needed anywhere): empty -> 0.0, single element -> that
    // element, uniformly for every p, in *both* entry points.
    for (double p : {0.0, 50.0, 99.0, 100.0}) {
        EXPECT_EQ(percentileSorted({}, p), 0.0);
        EXPECT_EQ(percentileSorted({7.5}, p), 7.5);
        EXPECT_EQ(percentileSorted({}, p), percentile({}, p));
        EXPECT_EQ(percentileSorted({7.5}, p), percentile({7.5}, p));
    }
}

TEST(PercentileDeathTest, OutOfRangePercentilePanics)
{
    EXPECT_DEATH(percentileSorted({1.0, 2.0}, -1.0), "out of range");
    EXPECT_DEATH(percentileSorted({1.0, 2.0}, 101.0), "out of range");
}

} // namespace
} // namespace qoserve
