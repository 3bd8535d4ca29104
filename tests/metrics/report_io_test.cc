/**
 * @file
 * Tests for result CSV serialization.
 */

#include "metrics/report_io.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string_view>

namespace qoserve {
namespace {

RequestRecord
makeRecord(std::uint64_t id, int tier, double ttft, double ttlt)
{
    RequestRecord rec;
    rec.spec.id = id;
    rec.spec.arrival = SimTime{1.0};
    rec.spec.promptTokens = 100;
    rec.spec.decodeTokens = 10;
    rec.spec.tierId = tier;
    rec.firstTokenTime = SimTime{1.0 + ttft};
    rec.finishTime = SimTime{1.0 + ttlt};
    return rec;
}

/** The value of row @p key of a written summary CSV, parsed exactly. */
double
summaryValue(const std::string &csv, const std::string &key)
{
    std::size_t at = csv.find("\n" + key + ",");
    if (at == std::string::npos) {
        ADD_FAILURE() << "missing key " << key;
        return -1.0;
    }
    at += key.size() + 2;
    std::optional<double> value =
        parseNumber<double>(std::string_view(csv).substr(
            at, csv.find('\n', at) - at));
    EXPECT_TRUE(value.has_value()) << key;
    return value.value_or(-1.0);
}

TEST(ReportIo, RecordsCsvHasHeaderAndRows)
{
    MetricsCollector collector(paperTierTable());
    collector.record(makeRecord(0, 0, 2.0, 3.0));
    collector.record(makeRecord(1, 1, 5.0, 700.0)); // Q2 violation

    std::stringstream out;
    writeRecordsCsv(collector, out);

    std::string line;
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_NE(line.find("id,arrival"), std::string::npos);

    ASSERT_TRUE(std::getline(out, line));
    EXPECT_EQ(line.rfind("0,1,100,10,0,1,2,3", 0), 0u) << line;

    ASSERT_TRUE(std::getline(out, line));
    // The Q2 record exceeded its 600 s TTLT: violated column = 1.
    EXPECT_NE(line.find(",1,0,0"), std::string::npos) << line;
    EXPECT_FALSE(std::getline(out, line));
}

TEST(ReportIo, RecordsCsvIgnoresTheStreamFormatState)
{
    // Rows round-trip bit-exactly whatever the caller's stream is set
    // to, and the stream's settings are left as they were.
    MetricsCollector collector(paperTierTable());
    RequestRecord rec = makeRecord(0, 0, 0.123456789012345, 3.0);
    collector.record(rec);

    std::stringstream fresh;
    writeRecordsCsv(collector, fresh);
    std::ostringstream fixed1;
    fixed1 << std::fixed << std::setprecision(1);
    writeRecordsCsv(collector, fixed1);

    EXPECT_EQ(fixed1.str(), fresh.str());
    EXPECT_EQ(fresh.precision(), 6);
    std::vector<RecordsCsvRow> rows = readRecordsCsv(fresh);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].ttft, rec.ttft());
    EXPECT_EQ(fixed1.precision(), 1);
}

TEST(ReportIo, SummaryCsvContainsAllMetrics)
{
    MetricsCollector collector(paperTierTable());
    collector.record(makeRecord(0, 0, 2.0, 3.0));
    RunSummary summary = summarize(collector);

    std::stringstream out;
    writeSummaryCsv(summary, out);
    std::string text = out.str();

    for (const char *key :
         {"count,1", "violation_rate,0", "p50_latency,2",
          "tier0_count,1", "tier0_p50_ttft,2"}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
}

TEST(ReportIo, RecordsCsvCarriesRetryColumns)
{
    MetricsCollector collector(paperTierTable());
    RequestRecord rec = makeRecord(0, 0, 2.0, 3.0);
    rec.retries = 2;
    collector.record(rec);
    RequestRecord lost = makeRecord(1, 1, 0.0, 0.0);
    lost.firstTokenTime = kTimeNever;
    lost.finishTime = kTimeNever;
    lost.retries = 3;
    lost.retryExhausted = true;
    collector.record(lost);

    std::stringstream out;
    writeRecordsCsv(collector, out);
    std::string line;
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_NE(line.find(",retries,retry_exhausted"), std::string::npos)
        << line;
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_EQ(line.substr(line.size() - 4), ",2,0") << line;
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_EQ(line.substr(line.size() - 4), ",3,1") << line;
}

TEST(ReportIo, SummaryCsvOmitsFaultRowsWhenNoFaultActivity)
{
    // A fault-free run's summary must be byte-identical to a build
    // without the fault subsystem: no availability/retry rows.
    MetricsCollector collector(paperTierTable());
    collector.record(makeRecord(0, 0, 2.0, 3.0));
    std::stringstream out;
    writeSummaryCsv(summarize(collector), out);
    EXPECT_EQ(out.str().find("availability"), std::string::npos);
    EXPECT_EQ(out.str().find("retries"), std::string::npos);
}

TEST(ReportIo, SummaryCsvEmitsFaultRowsWhenRetriesHappened)
{
    MetricsCollector collector(paperTierTable());
    RequestRecord rec = makeRecord(0, 0, 2.0, 3.0);
    rec.retries = 1;
    collector.record(rec);
    std::stringstream out;
    writeSummaryCsv(summarize(collector), out);
    std::string text = out.str();
    for (const char *key :
         {"availability,1", "retry_exhausted_fraction,0",
          "mean_retries,1", "failure_affected_fraction,1",
          "failure_violation_rate,0"}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
}

TEST(ReportIo, SummaryCsvOmitsPrefixRowsWithoutCacheActivity)
{
    // A cache-off run's summary must keep the exact historical
    // format: no prefix-cache rows.
    MetricsCollector collector(paperTierTable());
    collector.record(makeRecord(0, 0, 2.0, 3.0));
    std::stringstream out;
    writeSummaryCsv(summarize(collector), out);
    EXPECT_EQ(out.str().find("prefix"), std::string::npos);
}

TEST(ReportIo, SummaryCsvEmitsPrefixRowsWhenPrefixesReused)
{
    MetricsCollector collector(paperTierTable());
    RequestRecord rec = makeRecord(0, 0, 2.0, 3.0);
    rec.cachedPrefixTokens = 50;
    collector.record(rec);
    collector.record(makeRecord(1, 0, 2.0, 3.0));

    std::stringstream out;
    writeSummaryCsv(summarize(collector), out);
    std::string text = out.str();
    // One of two requests hit; 50 of 200 prompt tokens were reused.
    for (const char *key :
         {"prefix_hit_fraction,0.5", "prefix_tokens_saved_fraction,0.25",
          "mean_cached_prefix_tokens,25"}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
}

TEST(ReportIo, SummaryCsvRoundTripsPrefixRows)
{
    MetricsCollector collector(paperTierTable());
    RequestRecord rec = makeRecord(0, 0, 2.0, 3.0);
    rec.cachedPrefixTokens = 64;
    collector.record(rec);
    collector.record(makeRecord(1, 1, 5.0, 700.0));
    RunSummary summary = summarize(collector);

    std::stringstream buffer;
    writeSummaryCsv(summary, buffer);
    auto lookup = [text = buffer.str()](const std::string &key) {
        return summaryValue(text, key);
    };
    EXPECT_EQ(lookup("prefix_hit_fraction"), summary.prefixHitFraction);
    EXPECT_EQ(lookup("prefix_tokens_saved_fraction"),
              summary.prefixTokensSavedFraction);
    EXPECT_EQ(lookup("mean_cached_prefix_tokens"),
              summary.meanCachedPrefixTokens);
}

TEST(ReportIo, PrintSummaryPrefixLineIsGatedOnActivity)
{
    MetricsCollector off(paperTierTable());
    off.record(makeRecord(0, 0, 2.0, 3.0));
    std::stringstream quiet;
    printSummary(summarize(off), off.tiers(), quiet);
    EXPECT_EQ(quiet.str().find("prefix cache"), std::string::npos);

    MetricsCollector on(paperTierTable());
    RequestRecord rec = makeRecord(0, 0, 2.0, 3.0);
    rec.cachedPrefixTokens = 50;
    on.record(rec);
    std::stringstream loud;
    printSummary(summarize(on), on.tiers(), loud);
    EXPECT_NE(loud.str().find("prefix cache"), std::string::npos);
}

TEST(ReportIo, SummaryCsvRoundTrips)
{
    MetricsCollector collector(paperTierTable());
    RequestRecord rec = makeRecord(0, 0, 2.0, 3.0);
    rec.retries = 1;
    collector.record(rec);
    collector.record(makeRecord(1, 1, 5.0, 700.0));
    RunSummary summary = summarize(collector);

    std::stringstream buffer;
    writeSummaryCsv(summary, buffer);
    auto lookup = [text = buffer.str()](const std::string &key) {
        return summaryValue(text, key);
    };
    EXPECT_EQ(lookup("count"), 2.0);
    EXPECT_EQ(lookup("violation_rate"), summary.violationRate);
    EXPECT_EQ(lookup("availability"), summary.availability);
    EXPECT_EQ(lookup("mean_retries"), summary.meanRetries);
    EXPECT_EQ(lookup("tier0_count"), 1.0);
}

TEST(ReportIo, RecordsCsvRoundTrips)
{
    // Served, lost-to-crash (infinite latencies), and preempted
    // records must all survive a write/read cycle exactly —
    // qoserve_explain joins on this file.
    MetricsCollector collector(paperTierTable());
    RequestRecord served = makeRecord(0, 0, 2.0, 3.0);
    served.maxTbt = 0.125;
    served.tbtDeadlineMisses = 2;
    served.kvPreemptions = 1;
    served.retries = 1;
    collector.record(served);
    RequestRecord lost = makeRecord(1, 1, 0.0, 0.0);
    lost.firstTokenTime = kTimeNever;
    lost.finishTime = kTimeNever;
    lost.retries = 3;
    lost.retryExhausted = true;
    collector.record(lost);

    std::stringstream buffer;
    writeRecordsCsv(collector, buffer);
    std::vector<RecordsCsvRow> rows = readRecordsCsv(buffer);
    ASSERT_EQ(rows.size(), 2u);

    EXPECT_EQ(rows[0].id, 0u);
    EXPECT_EQ(rows[0].arrival, 1.0);
    EXPECT_EQ(rows[0].promptTokens, 100);
    EXPECT_EQ(rows[0].decodeTokens, 10);
    EXPECT_EQ(rows[0].tierId, 0);
    EXPECT_EQ(rows[0].ttft, 2.0);
    EXPECT_EQ(rows[0].ttlt, 3.0);
    EXPECT_EQ(rows[0].maxTbt, 0.125);
    EXPECT_EQ(rows[0].tbtMisses, 2);
    EXPECT_EQ(rows[0].kvPreemptions, 1);
    EXPECT_EQ(rows[0].retries, 1);
    EXPECT_FALSE(rows[0].retryExhausted);

    EXPECT_EQ(rows[1].id, 1u);
    EXPECT_TRUE(std::isinf(rows[1].ttft));
    EXPECT_TRUE(std::isinf(rows[1].ttlt));
    EXPECT_EQ(rows[1].retries, 3);
    EXPECT_TRUE(rows[1].retryExhausted);
    EXPECT_TRUE(rows[1].violated);
}

TEST(ReportIo, RecordsCsvRoundTripsNonRepresentableDoubles)
{
    // Precision-17 output must reproduce arrival times that have no
    // short decimal form.
    MetricsCollector collector(paperTierTable());
    RequestRecord rec = makeRecord(0, 0, 2.0, 3.0);
    rec.spec.arrival = SimTime{1.0 / 3.0};
    rec.firstTokenTime = rec.spec.arrival + 0.1;
    rec.finishTime = rec.spec.arrival + 0.3;
    collector.record(rec);

    std::stringstream buffer;
    writeRecordsCsv(collector, buffer);
    std::vector<RecordsCsvRow> rows = readRecordsCsv(buffer);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].arrival, 1.0 / 3.0);
    EXPECT_EQ(rows[0].ttft, (1.0 / 3.0 + 0.1) - 1.0 / 3.0);
}

TEST(ReportIo, RecordsCsvBadHeaderIsFatal)
{
    std::stringstream in("id,when\n0,1\n");
    EXPECT_DEATH(readRecordsCsv(in), "header");
}

TEST(ReportIo, RecordsCsvWrongFieldCountIsFatalWithLineNumber)
{
    MetricsCollector collector(paperTierTable());
    collector.record(makeRecord(0, 0, 2.0, 3.0));
    std::stringstream buffer;
    writeRecordsCsv(collector, buffer);
    std::string text = buffer.str() + "1,2,3\n";
    std::stringstream in(text);
    EXPECT_DEATH(readRecordsCsv(in), "line 3.*expected 15 fields");
}

TEST(ReportIo, PrintSummaryIsHumanReadable)
{
    MetricsCollector collector(paperTierTable());
    collector.record(makeRecord(0, 0, 2.0, 3.0));
    collector.record(makeRecord(1, 2, 5.0, 100.0));
    RunSummary summary = summarize(collector);

    std::stringstream out;
    printSummary(summary, collector.tiers(), out);
    std::string text = out.str();
    EXPECT_NE(text.find("requests: 2"), std::string::npos);
    EXPECT_NE(text.find("Q1"), std::string::npos);
    EXPECT_NE(text.find("Q3"), std::string::npos);
    EXPECT_NE(text.find("slo"), std::string::npos);
}

TEST(ReportIo, StreamWriterMatchesBufferedCsvByteForByte)
{
    // The simulator driver streams records to disk as they complete;
    // the contract is byte-identical output to the buffered post-run
    // dump (they share the header/row writers).
    MetricsCollector collector(paperTierTable());
    std::vector<RequestRecord> recs;
    recs.push_back(makeRecord(0, 0, 2.0, 3.0));
    recs.push_back(makeRecord(1, 1, 5.0, 700.0));
    RequestRecord retried = makeRecord(2, 2, 0.123456789012345, 99.0);
    retried.retries = 3;
    retried.wasRelegated = true;
    recs.push_back(retried);

    std::string path = ::testing::TempDir() + "/qoserve_stream.csv";
    RecordsCsvStreamWriter writer(collector.tiers(), path);
    for (const RequestRecord &rec : recs) {
        collector.record(rec);
        writer.write(rec);
    }
    writer.close();

    std::stringstream buffered;
    writeRecordsCsv(collector, buffered);
    std::ifstream in(path, std::ios::binary);
    std::stringstream streamed;
    streamed << in.rdbuf();
    EXPECT_EQ(streamed.str(), buffered.str());
}

TEST(ReportIo, CollectorSinkSeesEveryRecordInOrder)
{
    MetricsCollector collector(paperTierTable());
    std::vector<std::uint64_t> seen;
    collector.setRecordSink([&seen](const RequestRecord &rec) {
        seen.push_back(rec.spec.id);
    });
    collector.record(makeRecord(5, 0, 2.0, 3.0));
    collector.record(makeRecord(3, 1, 2.0, 3.0));
    collector.record(makeRecord(9, 2, 2.0, 3.0));

    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], 5u);
    EXPECT_EQ(seen[1], 3u);
    EXPECT_EQ(seen[2], 9u);
    // Retention stays on by default: sink is a tee, not a redirect.
    EXPECT_EQ(collector.size(), 3u);
    EXPECT_EQ(collector.totalRecorded(), 3u);
}

TEST(ReportIo, RetentionOffKeepsCountersButDropsRecords)
{
    MetricsCollector collector(paperTierTable());
    collector.setRetainRecords(false);
    for (int i = 0; i < 10; ++i)
        collector.record(makeRecord(i, 0, 2.0, 3.0));
    EXPECT_EQ(collector.size(), 0u);
    EXPECT_EQ(collector.totalRecorded(), 10u);
}

} // namespace
} // namespace qoserve
