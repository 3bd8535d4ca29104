/**
 * @file
 * Unit and statistical tests for the deterministic RNG.
 */

#include "simcore/rng.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace qoserve {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_EQ(same, 0);
}

TEST(Rng, SplitStreamsAreIndependentOfDrawCount)
{
    // The child stream must not depend on how many draws the parent
    // made after the split point was defined.
    Rng a(7);
    Rng child1 = a.split("workload");
    a.nextU64();
    a.nextU64();

    Rng b(7);
    Rng child2 = b.split("workload");

    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(child1.nextU64(), child2.nextU64());
}

TEST(Rng, SplitTagsProduceDistinctStreams)
{
    Rng root(7);
    Rng a = root.split("a");
    Rng b = root.split("b");
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_LE(same, 1);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(13);
    double sum = 0.0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(17);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(19);
    constexpr int n = 200000;
    double sum = 0.0, sumsq = 0.0;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal(5.0, 2.0);
        sum += v;
        sumsq += v * v;
    }
    double mean = sum / n;
    double var = sumsq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanIsInverseRate)
{
    Rng rng(23);
    constexpr int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, LognormalMedianIsExpMu)
{
    Rng rng(29);
    constexpr int n = 100001;
    std::vector<double> vals(n);
    for (auto &v : vals)
        v = rng.lognormal(std::log(100.0), 0.8);
    std::nth_element(vals.begin(), vals.begin() + n / 2, vals.end());
    EXPECT_NEAR(vals[n / 2], 100.0, 5.0);
}

TEST(Rng, BernoulliFrequencyMatchesP)
{
    Rng rng(31);
    constexpr int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.2);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.01);
}

/** FNV-1a over the 64-bit patterns of the first 1000 values of
 *  @p draw. */
template <typename Draw>
std::uint64_t
drawDigest(Draw draw)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t bits = draw();
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

TEST(Rng, FirstDrawsOfEveryDistributionArePinned)
{
    // Every synthesized trace comes from these draws. normal(),
    // lognormal() and exponential() go through std::log, std::sqrt,
    // std::sin, std::cos and std::exp, whose last bit a libm does not
    // promise; a libm that rounds one differently fails here, by
    // distribution, instead of moving every golden digest at once.
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    Rng u(2024), n(2024), ln(2024), ex(2024), ui(2024), be(2024);
    EXPECT_EQ(drawDigest([&] { return bits(u.uniform()); }),
              0x662ca75f6656a1c3ULL)
        << "uniform";
    EXPECT_EQ(drawDigest([&] { return bits(n.normal()); }),
              0xe2833b2a31007ea7ULL)
        << "normal";
    EXPECT_EQ(drawDigest([&] { return bits(ln.lognormal(4.6, 0.8)); }),
              0x77165183f6211ae8ULL)
        << "lognormal";
    EXPECT_EQ(drawDigest([&] { return bits(ex.exponential(3.0)); }),
              0xd785c81b7173f42fULL)
        << "exponential";
    EXPECT_EQ(drawDigest([&] {
                  return static_cast<std::uint64_t>(ui.uniformInt(-50, 5000));
              }),
              0x8bf0d64665843470ULL)
        << "uniformInt";
    EXPECT_EQ(drawDigest([&] {
                  return static_cast<std::uint64_t>(be.bernoulli(0.3));
              }),
              0x46293467de681c05ULL)
        << "bernoulli";
}

} // namespace
} // namespace qoserve
