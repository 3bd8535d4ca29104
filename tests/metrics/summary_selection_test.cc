/**
 * @file
 * Equivalence test for the selection-based summary: summarize() and
 * percentile() read their order statistics with nth_element, and
 * must give the bits the sort-based algorithm gave. The reference
 * below is that algorithm (sort each sample, then percentileSorted),
 * kept here so the library needs only one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "metrics/percentile.hh"
#include "metrics/slo_report.hh"
#include "simcore/rng.hh"

namespace qoserve {
namespace {

/** @p values sorted, then percentileSorted at @p p. */
double
sortedPercentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, p);
}

/** The sort-based summary: every field as summarize() computed it
 *  before selection replaced the sorts. */
RunSummary
referenceSummarize(const MetricsCollector &collector, double long_pct)
{
    const auto &records = collector.records();
    const auto &tiers = collector.tiers();
    RunSummary out;
    out.count = records.size();
    if (records.empty())
        return out;

    std::vector<double> prompts;
    for (const auto &r : records)
        prompts.push_back(static_cast<double>(r.spec.promptTokens));
    const double long_threshold = sortedPercentile(prompts, long_pct);

    auto rate = [](std::size_t num, std::size_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                              static_cast<double>(den);
    };
    const std::size_t n = records.size();
    std::size_t viol = 0, viol_tbt = 0, important = 0, important_viol = 0;
    std::size_t shorts = 0, short_viol = 0, longs = 0, long_viol = 0;
    std::size_t relegated = 0, rejected = 0, exhausted = 0;
    std::size_t affected = 0, affected_viol = 0, prefix_hits = 0;
    std::int64_t retries = 0, prefix_tokens = 0, prompt_tokens = 0;
    std::vector<double> latencies;
    std::vector<std::vector<double>> ttft(tiers.size()), ttlt(tiers.size());
    std::vector<std::size_t> tier_viol(tiers.size()), tier_tbt(tiers.size());
    for (const auto &r : records) {
        const QosTier &tier = tiers[r.spec.tierId];
        const bool v = violatedSlo(r, tier);
        viol += v;
        viol_tbt += v || violatedTbtSlo(r, tier);
        latencies.push_back(headlineLatency(r, tier));
        relegated += r.wasRelegated;
        rejected += r.rejected;
        exhausted += r.retryExhausted;
        retries += r.retries;
        prompt_tokens += r.spec.promptTokens;
        if (r.cachedPrefixTokens > 0) {
            ++prefix_hits;
            prefix_tokens += r.cachedPrefixTokens;
        }
        if (r.retries > 0 || r.retryExhausted) {
            ++affected;
            affected_viol += v;
        }
        if (r.spec.important) {
            ++important;
            important_viol += v;
        }
        if (static_cast<double>(r.spec.promptTokens) >= long_threshold) {
            ++longs;
            long_viol += v;
        } else {
            ++shorts;
            short_viol += v;
        }
        tier_viol[r.spec.tierId] += v;
        tier_tbt[r.spec.tierId] += r.tbtDeadlineMisses > 0;
        ttft[r.spec.tierId].push_back(r.ttft());
        ttlt[r.spec.tierId].push_back(r.ttlt());
    }
    out.violationRate = rate(viol, n);
    out.violationRateWithTbt = rate(viol_tbt, n);
    out.importantViolationRate = rate(important_viol, important);
    out.shortViolationRate = rate(short_viol, shorts);
    out.longViolationRate = rate(long_viol, longs);
    out.relegatedFraction = rate(relegated, n);
    out.rejectedFraction = rate(rejected, n);
    out.retryExhaustedFraction = rate(exhausted, n);
    out.availability = rate(n - rejected - exhausted, n);
    out.meanRetries =
        static_cast<double>(retries) / static_cast<double>(n);
    out.failureAffectedFraction = rate(affected, n);
    out.failureViolationRate = rate(affected_viol, n);
    out.prefixHitFraction = rate(prefix_hits, n);
    out.prefixTokensSavedFraction =
        prompt_tokens == 0 ? 0.0
                           : static_cast<double>(prefix_tokens) /
                                 static_cast<double>(prompt_tokens);
    out.meanCachedPrefixTokens =
        static_cast<double>(prefix_tokens) / static_cast<double>(n);
    out.p50Latency = sortedPercentile(latencies, 50.0);
    out.p95Latency = sortedPercentile(latencies, 95.0);
    out.p99Latency = sortedPercentile(latencies, 99.0);
    for (std::size_t t = 0; t < tiers.size(); ++t) {
        if (ttft[t].empty())
            continue;
        TierSummary ts;
        ts.tierId = static_cast<int>(t);
        ts.count = ttft[t].size();
        ts.p50Ttft = sortedPercentile(ttft[t], 50.0);
        ts.p95Ttft = sortedPercentile(ttft[t], 95.0);
        ts.p99Ttft = sortedPercentile(ttft[t], 99.0);
        ts.p50Ttlt = sortedPercentile(ttlt[t], 50.0);
        ts.p95Ttlt = sortedPercentile(ttlt[t], 95.0);
        ts.p99Ttlt = sortedPercentile(ttlt[t], 99.0);
        ts.violationRate = rate(tier_viol[t], ts.count);
        ts.tbtMissRate = rate(tier_tbt[t], ts.count);
        out.tiers.push_back(ts);
    }
    return out;
}

/** Same bits, so +0/-0 and inf/NaN count as the values they are. */
void
expectSameBits(double got, double want, const char *field)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << field << ": " << got << " vs " << want;
}

void
expectSameSummary(const RunSummary &got, const RunSummary &want)
{
    EXPECT_EQ(got.count, want.count);
#define QOSERVE_SAME(field) expectSameBits(got.field, want.field, #field)
    QOSERVE_SAME(violationRate);
    QOSERVE_SAME(violationRateWithTbt);
    QOSERVE_SAME(importantViolationRate);
    QOSERVE_SAME(shortViolationRate);
    QOSERVE_SAME(longViolationRate);
    QOSERVE_SAME(relegatedFraction);
    QOSERVE_SAME(rejectedFraction);
    QOSERVE_SAME(p50Latency);
    QOSERVE_SAME(p95Latency);
    QOSERVE_SAME(p99Latency);
    QOSERVE_SAME(availability);
    QOSERVE_SAME(retryExhaustedFraction);
    QOSERVE_SAME(meanRetries);
    QOSERVE_SAME(failureAffectedFraction);
    QOSERVE_SAME(failureViolationRate);
    QOSERVE_SAME(prefixHitFraction);
    QOSERVE_SAME(prefixTokensSavedFraction);
    QOSERVE_SAME(meanCachedPrefixTokens);
#undef QOSERVE_SAME
    ASSERT_EQ(got.tiers.size(), want.tiers.size());
    for (std::size_t i = 0; i < got.tiers.size(); ++i) {
        const TierSummary &g = got.tiers[i];
        const TierSummary &w = want.tiers[i];
        EXPECT_EQ(g.tierId, w.tierId);
        EXPECT_EQ(g.count, w.count);
#define QOSERVE_SAME(field) expectSameBits(g.field, w.field, #field)
        QOSERVE_SAME(p50Ttft);
        QOSERVE_SAME(p95Ttft);
        QOSERVE_SAME(p99Ttft);
        QOSERVE_SAME(p50Ttlt);
        QOSERVE_SAME(p95Ttlt);
        QOSERVE_SAME(p99Ttlt);
        QOSERVE_SAME(violationRate);
        QOSERVE_SAME(tbtMissRate);
#undef QOSERVE_SAME
    }
}

/** Five tiers: 0 and 4 busy, 1 always empty, 2 and 3 with one and
 *  two records. */
TierTable
fiveTiers()
{
    TierTable tiers = paperTierTable();
    tiers.push_back(interactiveTier(3, "Q4", 3.0, fromMillis(50.0)));
    tiers.push_back(batchTier(4, "Q5", 1000.0));
    return tiers;
}

/**
 * A seeded random run: latencies drawn from a few values (heavy
 * ties) or continuous, some requests rejected or retry-exhausted
 * (infinite TTFT/TTLT), random prompt lengths, retries, cache hits
 * and TBT misses.
 */
MetricsCollector
randomCollector(std::uint64_t seed, std::size_t busy)
{
    Rng rng(seed);
    MetricsCollector collector(fiveTiers());
    const bool ties = rng.bernoulli(0.5);
    auto latency = [&] {
        return ties ? 0.25 * static_cast<double>(rng.uniformInt(1, 8))
                    : rng.exponential(0.5);
    };
    auto add = [&](int tier) {
        RequestRecord rec;
        rec.spec.id = collector.totalRecorded();
        rec.spec.tierId = tier;
        rec.spec.arrival = SimTime{rng.uniform(0.0, 100.0)};
        rec.spec.promptTokens = ties ? 128 * static_cast<int>(
                                                 rng.uniformInt(1, 4))
                                     : static_cast<int>(
                                           rng.uniformInt(1, 8192));
        rec.spec.decodeTokens = static_cast<int>(rng.uniformInt(1, 500));
        rec.spec.important = rng.bernoulli(0.3);
        const double u = rng.uniform();
        if (u < 0.05) {
            rec.rejected = true; // latencies stay infinite
        } else if (u < 0.1) {
            rec.retryExhausted = true;
            rec.retries = 3;
            if (rng.bernoulli(0.5))
                rec.firstTokenTime = rec.spec.arrival + latency();
        } else {
            const double ttft = latency();
            rec.firstTokenTime = rec.spec.arrival + ttft;
            rec.finishTime = rec.firstTokenTime + latency() * 10.0;
            rec.retries = rng.bernoulli(0.1) ? 1 : 0;
        }
        rec.tbtDeadlineMisses =
            rng.bernoulli(0.2) ? static_cast<int>(rng.uniformInt(1, 20))
                               : 0;
        rec.wasRelegated = rng.bernoulli(0.1);
        rec.cachedPrefixTokens =
            rng.bernoulli(0.2) ? rec.spec.promptTokens / 2 : 0;
        collector.record(rec);
    };
    for (std::size_t i = 0; i < busy; ++i)
        add(rng.bernoulli(0.6) ? 0 : 4);
    add(2);
    add(3);
    add(3);
    return collector;
}

TEST(SummarySelection, EveryFieldMatchesTheSortedReference)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const std::size_t busy = seed % 3 == 0 ? 0 : 20 * seed;
        MetricsCollector collector = randomCollector(seed, busy);
        for (double long_pct : {90.0, 0.0, 100.0, 37.5}) {
            SCOPED_TRACE(testing::Message() << "seed " << seed
                                            << " long_pct " << long_pct);
            expectSameSummary(summarize(collector, long_pct),
                              referenceSummarize(collector, long_pct));
        }
    }
}

TEST(SummarySelection, PercentileMatchesSortThenPercentileSorted)
{
    const double inf = std::numeric_limits<double>::infinity();
    Rng rng(19);
    for (int trial = 0; trial < 300; ++trial) {
        const auto n = static_cast<std::size_t>(rng.uniformInt(0, 400));
        const bool ties = trial % 2 == 0;
        std::vector<double> sample;
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.bernoulli(0.05))
                sample.push_back(inf);
            else if (ties)
                sample.push_back(static_cast<double>(rng.uniformInt(0, 5)));
            else
                sample.push_back(rng.exponential(1.0));
        }
        for (double p : {0.0, 0.1, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
            expectSameBits(percentile(sample, p), sortedPercentile(sample, p),
                           "percentile");
        }
        // Several ascending percentiles from one selection pass.
        static constexpr double kPs[] = {0.0, 0.1, 50.0, 50.0, 90.0,
                                         95.0, 99.0, 99.9, 100.0};
        double got[std::size(kPs)];
        std::vector<double> scratch = sample;
        selectPercentiles(scratch, kPs, got);
        for (std::size_t i = 0; i < std::size(kPs); ++i)
            expectSameBits(got[i], sortedPercentile(sample, kPs[i]),
                           "selectPercentiles");
    }
}

TEST(SummarySelectionDeathTest, PercentilesMustAscend)
{
    std::vector<double> v = {3.0, 1.0, 2.0};
    const double ps[] = {90.0, 50.0};
    double out[2];
    EXPECT_DEATH(selectPercentiles(v, ps, out), "ascend");
}

} // namespace
} // namespace qoserve
