/**
 * @file
 * Tests for trace CSV round-tripping and validation.
 */

#include "workload/trace_io.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace qoserve {
namespace {

TEST(TraceIo, RoundTripPreservesEveryField)
{
    Trace original = TraceBuilder()
                         .dataset(azureCode())
                         .seed(5)
                         .lowPriorityFraction(0.3)
                         .buildCount(PoissonArrivals(4.0), 500);

    std::stringstream buffer;
    writeTraceCsv(original, buffer);
    Trace parsed = readTraceCsv(buffer, paperTierTable());

    ASSERT_EQ(parsed.requests.size(), original.requests.size());
    for (std::size_t i = 0; i < parsed.requests.size(); ++i) {
        const RequestSpec &a = original.requests[i];
        const RequestSpec &b = parsed.requests[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_DOUBLE_EQ(a.arrival.seconds(), b.arrival.seconds());
        EXPECT_EQ(a.promptTokens, b.promptTokens);
        EXPECT_EQ(a.decodeTokens, b.decodeTokens);
        EXPECT_EQ(a.tierId, b.tierId);
        EXPECT_EQ(a.important, b.important);
        EXPECT_EQ(a.appId, b.appId);
    }
}

TEST(TraceIo, AppStatsRecomputedOnLoad)
{
    Trace original = TraceBuilder().seed(6).buildCount(
        PoissonArrivals(2.0), 300);
    std::stringstream buffer;
    writeTraceCsv(original, buffer);
    Trace parsed = readTraceCsv(buffer, paperTierTable());

    ASSERT_EQ(parsed.appStats.size(), original.appStats.size());
    for (std::size_t a = 0; a < parsed.appStats.size(); ++a) {
        EXPECT_NEAR(parsed.appStats[a].meanDecode,
                    original.appStats[a].meanDecode, 1e-9);
    }
}

TEST(TraceIo, UnsortedRowsAreSortedByArrival)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id\n"
        "1,5.0,100,10,0,1,0\n"
        "0,2.0,200,20,1,0,1\n");
    Trace trace = readTraceCsv(in, paperTierTable());
    ASSERT_EQ(trace.requests.size(), 2u);
    EXPECT_EQ(trace.requests[0].id, 0u);
    EXPECT_EQ(trace.requests[1].id, 1u);
    EXPECT_FALSE(trace.requests[0].important);
}

TEST(TraceIo, WindowsLineEndingsAccepted)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id\r\n"
        "0,1.0,100,10,0,1,0\r\n");
    Trace trace = readTraceCsv(in, paperTierTable());
    EXPECT_EQ(trace.requests.size(), 1u);
}

TEST(TraceIo, BadHeaderIsFatal)
{
    std::stringstream in("nope\n0,1.0,100,10,0,1,0\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()), "workload trace CSV line 1: unexpected header: 'nope'");
}

TEST(TraceIo, WrongFieldCountIsFatal)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id\n"
        "0,1.0,100,10,0\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()), "expected 7 fields");
}

TEST(TraceIo, OutOfRangeTierIsFatal)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id\n"
        "0,1.0,100,10,9,1,0\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()), "out of range");
}

TEST(TraceIo, NonPositiveTokensAreFatal)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id\n"
        "0,1.0,0,10,0,1,0\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()),
                 "token counts must be positive");
}

TEST(TraceIo, TrailingGarbageInFieldIsFatalWithLineNumber)
{
    // "12x" must not silently parse as 12: every field must consume
    // its whole text, and the error names the 1-based line and field.
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id\n"
        "0,1.0,100,10,0,1,0\n"
        "1,2.0,12x,10,0,1,0\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()),
                 "trace CSV line 3: field 'prompt_tokens': not an integer: '12x'");
}

TEST(TraceIo, NonNumericArrivalIsFatal)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id\n"
        "0,soon,100,10,0,1,0\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()),
                 "line 2: field 'arrival': not a number: 'soon'");
}

TEST(TraceIo, NegativeIdIsFatal)
{
    // Request ids are unsigned; "-1" must be rejected, not wrapped.
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id\n"
        "-1,1.0,100,10,0,1,0\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()),
                 "line 2: field 'id': not an unsigned integer: '-1'");
}

TEST(TraceIo, EmptyFieldIsFatal)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id\n"
        "0,1.0,100,,0,1,0\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()),
                 "field 'decode_tokens'");
}

TEST(TraceIo, HeaderStaysLegacyWithoutSegments)
{
    // Traces without prompt segments must keep the historical byte
    // format: 7-column header, no trailing column.
    Trace original =
        TraceBuilder().seed(8).buildCount(PoissonArrivals(3.0), 10);
    std::stringstream buffer;
    writeTraceCsv(original, buffer);
    std::string header;
    ASSERT_TRUE(std::getline(buffer, header));
    EXPECT_EQ(header,
              "id,arrival,prompt_tokens,decode_tokens,tier_id,"
              "important,app_id");
    std::string row;
    ASSERT_TRUE(std::getline(buffer, row));
    EXPECT_EQ(std::count(row.begin(), row.end(), ','), 6);
}

TEST(TraceIo, SegmentsRoundTrip)
{
    SharedPrefixConfig sp;
    sp.shareRatio = 0.6;
    sp.numPools = 3;
    Trace original = TraceBuilder()
                         .seed(9)
                         .sharedPrefix(sp)
                         .buildCount(PoissonArrivals(4.0), 400);

    std::stringstream buffer;
    writeTraceCsv(original, buffer);
    std::string header;
    ASSERT_TRUE(std::getline(buffer, header));
    EXPECT_EQ(header,
              "id,arrival,prompt_tokens,decode_tokens,tier_id,"
              "important,app_id,prompt_segments");
    buffer.seekg(0);

    Trace parsed = readTraceCsv(buffer, paperTierTable());
    ASSERT_EQ(parsed.requests.size(), original.requests.size());
    for (std::size_t i = 0; i < parsed.requests.size(); ++i) {
        const RequestSpec &a = original.requests[i];
        const RequestSpec &b = parsed.requests[i];
        EXPECT_EQ(a.promptTokens, b.promptTokens);
        ASSERT_EQ(a.promptSegments.size(), b.promptSegments.size());
        for (std::size_t s = 0; s < a.promptSegments.size(); ++s) {
            EXPECT_EQ(a.promptSegments[s].contentId,
                      b.promptSegments[s].contentId);
            EXPECT_EQ(a.promptSegments[s].tokens,
                      b.promptSegments[s].tokens);
        }
    }
}

TEST(TraceIo, DashMarksUniquePromptsInSegmentTraces)
{
    // In a trace that has any segments, segment-free requests carry
    // '-' in the extra column and read back as wholly unique.
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id,prompt_segments\n"
        "0,1.0,300,10,0,1,0,7:200;9:100\n"
        "1,2.0,150,10,0,1,0,-\n");
    Trace trace = readTraceCsv(in, paperTierTable());
    ASSERT_EQ(trace.requests.size(), 2u);
    ASSERT_EQ(trace.requests[0].promptSegments.size(), 2u);
    EXPECT_EQ(trace.requests[0].promptSegments[0].contentId, 7u);
    EXPECT_EQ(trace.requests[0].promptSegments[0].tokens, 200);
    EXPECT_EQ(trace.requests[0].promptSegments[1].contentId, 9u);
    EXPECT_EQ(trace.requests[0].promptSegments[1].tokens, 100);
    EXPECT_TRUE(trace.requests[1].promptSegments.empty());
}

TEST(TraceIo, SegmentSumMismatchIsFatal)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id,prompt_segments\n"
        "0,1.0,300,10,0,1,0,7:200;9:50\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()),
                 "prompt segments sum to 250");
}

TEST(TraceIo, MalformedSegmentIsFatal)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id,prompt_segments\n"
        "0,1.0,300,10,0,1,0,7-300\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()),
                 "expected contentId:tokens");
}

TEST(TraceIo, NonPositiveSegmentTokensAreFatal)
{
    std::stringstream in(
        "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
        "app_id,prompt_segments\n"
        "0,1.0,300,10,0,1,0,7:300;9:0\n");
    EXPECT_DEATH(readTraceCsv(in, paperTierTable()),
                 "segment tokens must be positive");
}

TEST(TraceIo, FileRoundTrip)
{
    Trace original =
        TraceBuilder().seed(7).buildCount(PoissonArrivals(3.0), 100);
    std::string path = ::testing::TempDir() + "/qoserve_trace_io.csv";
    writeTraceCsvFile(original, path);
    Trace parsed = readTraceCsvFile(path, paperTierTable());
    EXPECT_EQ(parsed.requests.size(), 100u);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_DEATH(readTraceCsvFile("/nonexistent/qoserve.csv",
                                  paperTierTable()),
                 "cannot open");
}

} // namespace
} // namespace qoserve
