/**
 * @file
 * Tests for the mergeable quantile sketch: the relative-error
 * contract against percentileSorted, bitwise merge invariance, the
 * degenerate-sample sentinels, and the bank CSV round trip.
 */

#include "obs/quantile_sketch.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/percentile.hh"
#include "simcore/rng.hh"

namespace qoserve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Assert the sketch's estimate at @p p brackets the order statistic
 * percentileSorted targets. quantile(p) aims at sorted[floor(r)]
 * with r = p/100*(n-1), while percentileSorted interpolates between
 * sorted[floor(r)] and sorted[ceil(r)]; the estimate must therefore
 * land within relative error of that [lo, hi] value range.
 */
void
expectWithinRelativeError(const QuantileSketch &sk,
                          std::vector<double> sorted, double p)
{
    std::sort(sorted.begin(), sorted.end());
    double pos =
        (p / 100.0) * static_cast<double>(sorted.size() - 1);
    double lo = sorted[static_cast<std::size_t>(pos)];
    double hi = sorted[std::min(static_cast<std::size_t>(pos) + 1,
                                sorted.size() - 1)];
    double est = sk.quantile(p);
    double e = sk.relativeError();
    EXPECT_GE(est, (1.0 - e) * lo)
        << "p=" << p << " lo=" << lo << " hi=" << hi;
    EXPECT_LE(est, (1.0 + e) * hi)
        << "p=" << p << " lo=" << lo << " hi=" << hi;
}

TEST(QuantileSketch, EmptySketchUsesTheSentinel)
{
    QuantileSketch sk;
    EXPECT_TRUE(sk.empty());
    EXPECT_EQ(sk.count(), 0u);
    // The shared degenerate-sample convention: empty -> 0.0 for
    // every p, matching percentileSorted({}).
    EXPECT_EQ(sk.quantile(0.0), 0.0);
    EXPECT_EQ(sk.quantile(50.0), 0.0);
    EXPECT_EQ(sk.quantile(100.0), 0.0);
}

TEST(QuantileSketch, SingleValueReportsItselfWithinError)
{
    QuantileSketch sk;
    sk.insert(3.25);
    EXPECT_EQ(sk.count(), 1u);
    for (double p : {0.0, 50.0, 99.0, 100.0}) {
        EXPECT_NEAR(sk.quantile(p), 3.25,
                    3.25 * sk.relativeError());
    }
}

TEST(QuantileSketch, PropertyQuantilesTrackPercentileSorted)
{
    // Log-uniform latencies over six decades, several seeds: the
    // estimate must bracket the targeted order statistic at the
    // configured relative error for every tested percentile.
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        Rng rng(seed);
        QuantileSketch sk; // default 1% error
        std::vector<double> values;
        for (int i = 0; i < 5000; ++i) {
            double v = std::pow(10.0, rng.uniform(-3.0, 3.0));
            values.push_back(v);
            sk.insert(v);
        }
        ASSERT_EQ(sk.count(), values.size());
        for (double p :
             {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
              99.9, 100.0}) {
            expectWithinRelativeError(sk, values, p);
        }
    }
}

TEST(QuantileSketch, CoarserSketchStillHonoursItsOwnBound)
{
    Rng rng(1234);
    QuantileSketch sk(0.05);
    std::vector<double> values;
    for (int i = 0; i < 2000; ++i) {
        double v = rng.uniform(0.001, 50.0);
        values.push_back(v);
        sk.insert(v);
    }
    for (double p : {5.0, 50.0, 95.0, 99.0})
        expectWithinRelativeError(sk, values, p);
}

TEST(QuantileSketch, InfinityLandsInTheOverflowBucket)
{
    QuantileSketch sk;
    sk.insert(1.0);
    sk.insert(2.0);
    sk.insert(kInf);
    sk.insert(kInf);
    EXPECT_EQ(sk.count(), 4u);
    EXPECT_EQ(sk.infCount(), 2u);
    EXPECT_EQ(sk.maxFinite(), 2.0);
    // Rank 3 of {1, 2, inf, inf} is the first +inf: percentile 100
    // (and anything targeting the overflow bucket) reports +inf,
    // matching percentileSorted over a vector holding +inf.
    EXPECT_EQ(sk.quantile(100.0), kInf);
    // Rank 0 stays finite.
    EXPECT_LE(sk.quantile(0.0), 1.0 * (1.0 + sk.relativeError()));
}

TEST(QuantileSketch, SubIndexableValuesReportAsZero)
{
    QuantileSketch sk;
    sk.insert(0.0);
    sk.insert(1e-15);
    sk.insert(5.0);
    EXPECT_EQ(sk.zeroCount(), 2u);
    EXPECT_EQ(sk.quantile(0.0), 0.0);
    EXPECT_EQ(sk.quantile(50.0), 0.0); // rank 1 of 3 -> zero bucket
    EXPECT_NEAR(sk.quantile(100.0), 5.0, 5.0 * sk.relativeError());
}

TEST(QuantileSketchDeathTest, NegativeAndNanInsertsPanic)
{
    QuantileSketch sk;
    EXPECT_DEATH(sk.insert(-1.0), "non-negative");
    EXPECT_DEATH(sk.insert(std::nan("")), "");
}

TEST(QuantileSketch, BankCsvRoundTripsExactly)
{
    Rng rng(5);
    std::map<std::string, QuantileSketch> bank;
    QuantileSketch &t0 = bank.emplace("tier0.headline", QuantileSketch{})
                             .first->second;
    for (int i = 0; i < 500; ++i)
        t0.insert(rng.uniform(0.01, 20.0));
    t0.insert(kInf);
    t0.insert(0.0);
    QuantileSketch &t1 =
        bank.emplace("tier1.ttft", QuantileSketch(0.02)).first->second;
    for (int i = 0; i < 100; ++i)
        t1.insert(rng.uniform(0.5, 2.0));
    bank.emplace("tier2.empty", QuantileSketch{});

    std::ostringstream out;
    writeSketchBankCsv(bank, out);
    std::istringstream in(out.str());
    std::map<std::string, QuantileSketch> back =
        readSketchBankCsv(in);

    ASSERT_EQ(back.size(), bank.size());
    for (const auto &[name, sk] : bank) {
        ASSERT_TRUE(back.count(name)) << name;
        EXPECT_TRUE(back.at(name) == sk) << name;
    }

    // And the second generation writes the same bytes.
    std::ostringstream out2;
    writeSketchBankCsv(back, out2);
    EXPECT_EQ(out.str(), out2.str());
}

TEST(QuantileSketchDeathTest, MalformedBankCsvIsFatal)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        readSketchBankCsv(in);
    };
    EXPECT_DEATH(parse("bogus,header,row\n"), "header");
    EXPECT_DEATH(parse("sketch,field,value\n"
                       "a,zero,0\n"),
                 "alpha");
    EXPECT_DEATH(parse("sketch,field,value\n"
                       "a,alpha,0.01\n"
                       "a,b5,2\n"
                       "a,b3,1\n"),
                 "bucket");
}

TEST(QuantileSketchDeathTest, NegativeBankCountIsFatal)
{
    // A count is unsigned: "-3" must not wrap to 2^64 - 3.
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        readSketchBankCsv(in);
    };
    EXPECT_DEATH(parse("sketch,field,value\n"
                       "a,alpha,0.01\n"
                       "a,zero,-3\n"),
                 "sketch CSV line 3: field 'value': not an unsigned "
                 "integer: '-3'");
    EXPECT_DEATH(parse("sketch,field,value\n"
                       "a,alpha,0.01\n"
                       "a,b5,-3\n"),
                 "sketch CSV line 3: field 'value': not an unsigned "
                 "integer: '-3'");
}

} // namespace
} // namespace qoserve
