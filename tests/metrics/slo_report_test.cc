/**
 * @file
 * Tests for SLO accounting and run summaries.
 */

#include "metrics/slo_report.hh"

#include <gtest/gtest.h>

namespace qoserve {
namespace {

RequestRecord
makeRecord(std::uint64_t id, int tier, SimTime arrival, double ttft,
           double ttlt, int prompt = 1000, bool important = true)
{
    RequestRecord rec;
    rec.spec.id = id;
    rec.spec.tierId = tier;
    rec.spec.arrival = SimTime{arrival};
    rec.spec.promptTokens = prompt;
    rec.spec.decodeTokens = 10;
    rec.spec.important = important;
    rec.firstTokenTime = arrival + ttft;
    rec.finishTime = arrival + ttlt;
    return rec;
}

class SloReportTest : public ::testing::Test
{
  protected:
    SloReportTest() : collector_(paperTierTable()) {}

    MetricsCollector collector_;
};

TEST_F(SloReportTest, ViolationRulePerTierKind)
{
    TierTable tiers = paperTierTable();
    // Q1 interactive: TTFT governs.
    EXPECT_FALSE(violatedSlo(makeRecord(1, 0, SimTime{0}, 5.0, 100.0), tiers[0]));
    EXPECT_TRUE(violatedSlo(makeRecord(2, 0, SimTime{0}, 6.5, 7.0), tiers[0]));
    // Q2 batch: TTLT governs; TTFT is irrelevant.
    EXPECT_FALSE(violatedSlo(makeRecord(3, 1, SimTime{0}, 500.0, 599.0), tiers[1]));
    EXPECT_TRUE(violatedSlo(makeRecord(4, 1, SimTime{0}, 1.0, 601.0), tiers[1]));
}

TEST_F(SloReportTest, HeadlineLatencyPicksTtftOrTtlt)
{
    TierTable tiers = paperTierTable();
    RequestRecord rec = makeRecord(1, 0, SimTime{10.0}, 2.0, 50.0);
    EXPECT_DOUBLE_EQ(headlineLatency(rec, tiers[0]), 2.0);
    rec.spec.tierId = 1;
    EXPECT_DOUBLE_EQ(headlineLatency(rec, tiers[1]), 50.0);
}

TEST_F(SloReportTest, EmptySummary)
{
    RunSummary s = summarize(collector_);
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.violationRate, 0.0);
    EXPECT_TRUE(s.tiers.empty());
}

TEST_F(SloReportTest, OverallViolationRate)
{
    collector_.record(makeRecord(1, 0, SimTime{0}, 1.0, 10.0));  // ok
    collector_.record(makeRecord(2, 0, SimTime{0}, 7.0, 10.0));  // viol
    collector_.record(makeRecord(3, 1, SimTime{0}, 1.0, 100.0)); // ok
    collector_.record(makeRecord(4, 1, SimTime{0}, 1.0, 700.0)); // viol

    RunSummary s = summarize(collector_);
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.violationRate, 0.5);
}

TEST_F(SloReportTest, PerTierSummaries)
{
    collector_.record(makeRecord(1, 0, SimTime{0}, 1.0, 2.0));
    collector_.record(makeRecord(2, 0, SimTime{0}, 3.0, 4.0));
    collector_.record(makeRecord(3, 2, SimTime{0}, 1.0, 2000.0)); // Q3 viol

    RunSummary s = summarize(collector_);
    ASSERT_EQ(s.tiers.size(), 2u);

    const TierSummary &q1 = s.tiers[0];
    EXPECT_EQ(q1.tierId, 0);
    EXPECT_EQ(q1.count, 2u);
    EXPECT_DOUBLE_EQ(q1.p50Ttft, 2.0);
    EXPECT_DOUBLE_EQ(q1.violationRate, 0.0);

    const TierSummary &q3 = s.tiers[1];
    EXPECT_EQ(q3.tierId, 2);
    EXPECT_DOUBLE_EQ(q3.violationRate, 1.0);
}

TEST_F(SloReportTest, EmptyMiddleTierIsLeftOutInIdOrder)
{
    // Completion order puts Q3 first; the summary still lists tiers
    // by id and leaves out Q2, which no record reached.
    collector_.record(makeRecord(1, 2, SimTime{0}, 1.0, 4.0));
    collector_.record(makeRecord(2, 0, SimTime{0}, 1.0, 2.0));
    collector_.record(makeRecord(3, 2, SimTime{0}, 1.0, 8.0));
    collector_.record(makeRecord(4, 0, SimTime{0}, 3.0, 4.0));
    collector_.record(makeRecord(5, 0, SimTime{0}, 5.0, 6.0));

    RunSummary s = summarize(collector_);
    ASSERT_EQ(s.tiers.size(), 2u);
    EXPECT_EQ(s.tiers[0].tierId, 0);
    EXPECT_EQ(s.tiers[0].count, 3u);
    EXPECT_DOUBLE_EQ(s.tiers[0].p50Ttft, 3.0);
    EXPECT_EQ(s.tiers[1].tierId, 2);
    EXPECT_EQ(s.tiers[1].count, 2u);
    EXPECT_DOUBLE_EQ(s.tiers[1].p50Ttlt, 6.0);
}

TEST_F(SloReportTest, ImportantViolationRateSeparated)
{
    collector_.record(makeRecord(1, 0, SimTime{0}, 7.0, 8.0, 1000, false));
    collector_.record(makeRecord(2, 0, SimTime{0}, 1.0, 2.0, 1000, true));
    collector_.record(makeRecord(3, 0, SimTime{0}, 9.0, 10.0, 1000, true));

    RunSummary s = summarize(collector_);
    EXPECT_NEAR(s.violationRate, 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.importantViolationRate, 0.5);
}

TEST_F(SloReportTest, ShortLongSplitUsesPromptPercentile)
{
    // Nine short prompts (ok) and one long prompt (violating).
    for (int i = 0; i < 9; ++i)
        collector_.record(makeRecord(i, 0, SimTime{0}, 1.0, 2.0, 100));
    collector_.record(makeRecord(9, 0, SimTime{0}, 7.0, 8.0, 10000));

    RunSummary s = summarize(collector_, 90.0);
    EXPECT_DOUBLE_EQ(s.longViolationRate, 1.0);
    EXPECT_DOUBLE_EQ(s.shortViolationRate, 0.0);
}

TEST_F(SloReportTest, RelegatedFractionCounted)
{
    RequestRecord r1 = makeRecord(1, 0, SimTime{0}, 1.0, 2.0);
    r1.wasRelegated = true;
    collector_.record(r1);
    collector_.record(makeRecord(2, 0, SimTime{0}, 1.0, 2.0));

    RunSummary s = summarize(collector_);
    EXPECT_DOUBLE_EQ(s.relegatedFraction, 0.5);
}

TEST_F(SloReportTest, TbtMissRateCounted)
{
    RequestRecord r1 = makeRecord(1, 0, SimTime{0}, 1.0, 2.0);
    r1.tbtDeadlineMisses = 3;
    collector_.record(r1);
    collector_.record(makeRecord(2, 0, SimTime{0}, 1.0, 2.0));

    RunSummary s = summarize(collector_);
    ASSERT_EQ(s.tiers.size(), 1u);
    EXPECT_DOUBLE_EQ(s.tiers[0].tbtMissRate, 0.5);
}

TEST_F(SloReportTest, LatencyPercentilesOverHeadlineMetric)
{
    for (int i = 1; i <= 100; ++i)
        collector_.record(makeRecord(i, 0, SimTime{0}, i * 0.01, 1.0));
    RunSummary s = summarize(collector_);
    EXPECT_NEAR(s.p50Latency, 0.5, 0.02);
    EXPECT_NEAR(s.p99Latency, 1.0, 0.02);
}

TEST_F(SloReportTest, RollingLatencyBucketsByArrival)
{
    // Two 60 s windows with very different latencies.
    for (int i = 0; i < 10; ++i)
        collector_.record(makeRecord(i, 0, SimTime{10.0 + i}, 1.0, 2.0));
    for (int i = 0; i < 10; ++i)
        collector_.record(makeRecord(100 + i, 0, SimTime{70.0 + i}, 9.0, 10.0));

    auto series = rollingLatency(collector_, 60.0, 99.0);
    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series[0].windowStart.seconds(), 0.0);
    EXPECT_NEAR(series[0].value, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(series[1].windowStart.seconds(), 60.0);
    EXPECT_NEAR(series[1].value, 9.0, 1e-9);
    EXPECT_EQ(series[0].count, 10u);
}

TEST_F(SloReportTest, RollingLatencySkipsEmptyWindows)
{
    // 10 s windows: [0, 10) holds TTFTs 3, 1, 2 (median 2); [10, 20)
    // is empty; [20, 30) holds 7 and 5 (median 6, interpolated). The
    // records arrive out of arrival order.
    collector_.record(makeRecord(1, 0, SimTime{25.0}, 7.0, 8.0));
    collector_.record(makeRecord(2, 0, SimTime{1.0}, 3.0, 4.0));
    collector_.record(makeRecord(3, 0, SimTime{21.0}, 5.0, 6.0));
    collector_.record(makeRecord(4, 0, SimTime{2.0}, 1.0, 2.0));
    collector_.record(makeRecord(5, 0, SimTime{3.0}, 2.0, 3.0));

    auto series = rollingLatency(collector_, 10.0, 50.0);
    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series[0].windowStart.seconds(), 0.0);
    EXPECT_EQ(series[0].count, 3u);
    EXPECT_DOUBLE_EQ(series[0].value, 2.0);
    EXPECT_DOUBLE_EQ(series[1].windowStart.seconds(), 20.0);
    EXPECT_EQ(series[1].count, 2u);
    EXPECT_DOUBLE_EQ(series[1].value, 6.0);
}

TEST_F(SloReportTest, RollingLatencyFiltersTierAndImportance)
{
    collector_.record(makeRecord(1, 0, SimTime{10.0}, 1.0, 2.0));
    collector_.record(makeRecord(2, 1, SimTime{10.0}, 1.0, 500.0));
    RequestRecord low = makeRecord(3, 0, SimTime{10.0}, 3.0, 4.0, 1000, false);
    collector_.record(low);

    auto q1_only = rollingLatency(collector_, 60.0, 50.0, 0);
    ASSERT_EQ(q1_only.size(), 1u);
    EXPECT_EQ(q1_only[0].count, 2u);

    auto important_q1 =
        rollingLatency(collector_, 60.0, 50.0, 0, true);
    ASSERT_EQ(important_q1.size(), 1u);
    EXPECT_EQ(important_q1[0].count, 1u);
    EXPECT_NEAR(important_q1[0].value, 1.0, 1e-9);
}

TEST_F(SloReportTest, RecordWithUnknownTierPanics)
{
    RequestRecord bad = makeRecord(1, 0, SimTime{0}, 1.0, 2.0);
    bad.spec.tierId = 99;
    EXPECT_DEATH(collector_.record(bad), "unknown tier");
}

} // namespace
} // namespace qoserve
