/**
 * @file
 * Tests for critical-path extraction: chain reconstruction over
 * serial timelines, coalescing, dominance, aggregation across
 * requests, and the aggregate CSV round trip.
 */

#include "obs/critical_path.hh"

#include <gtest/gtest.h>

#include <sstream>

namespace qoserve {
namespace {

PhaseSpan
span(TracePhase phase, int replica, double begin, double end)
{
    return PhaseSpan{phase, replica, SimTime{begin}, SimTime{end}};
}

TEST(CriticalPath, EmptyTimelineHasNoPath)
{
    RequestTimeline tl;
    CriticalPath path = criticalPathFor(tl);
    EXPECT_TRUE(path.segments.empty());
    EXPECT_EQ(path.totalSeconds, 0.0);
    EXPECT_EQ(path.dominant().seconds, 0.0);
}

TEST(CriticalPath, SerialTimelineCoversTheWholeLifetime)
{
    RequestTimeline tl;
    tl.spans.push_back(span(TracePhase::Queued, 0, 0.0, 2.0));
    tl.spans.push_back(span(TracePhase::Prefill, 0, 2.0, 3.0));
    tl.spans.push_back(span(TracePhase::Decode, 0, 3.0, 7.0));

    CriticalPath path = criticalPathFor(tl);
    ASSERT_EQ(path.segments.size(), 3u);
    EXPECT_DOUBLE_EQ(path.totalSeconds, 7.0);
    EXPECT_EQ(path.dominant().phase, TracePhase::Decode);
    EXPECT_DOUBLE_EQ(path.dominant().seconds, 4.0);
}

TEST(CriticalPath, ConsecutiveSamePhaseSpansCoalesce)
{
    // Chunked prefill: prefill / starved / prefill on one replica,
    // then the starved gap and both prefill chunks merge into... no —
    // only *consecutive* same-(phase, replica) spans merge. The two
    // prefill chunks stay separated by the starved segment.
    RequestTimeline tl;
    tl.spans.push_back(span(TracePhase::Prefill, 1, 0.0, 1.0));
    tl.spans.push_back(span(TracePhase::Prefill, 1, 1.0, 2.5));
    tl.spans.push_back(span(TracePhase::Starved, 1, 2.5, 3.0));
    tl.spans.push_back(span(TracePhase::Prefill, 1, 3.0, 4.0));

    CriticalPath path = criticalPathFor(tl);
    ASSERT_EQ(path.segments.size(), 3u);
    EXPECT_EQ(path.segments[0],
              (CriticalSegment{TracePhase::Prefill, 1, 2.5}));
    EXPECT_EQ(path.segments[1],
              (CriticalSegment{TracePhase::Starved, 1, 0.5}));
    EXPECT_EQ(path.segments[2],
              (CriticalSegment{TracePhase::Prefill, 1, 1.0}));
}

TEST(CriticalPathDeathTest, OverlappingSpansPanic)
{
    // Timelines are serial by construction; two spans that overlap
    // (e.g. prefill on two replicas at once) are a reconstruction bug.
    RequestTimeline tl;
    tl.spans.push_back(span(TracePhase::Queued, -1, 0.0, 1.0));
    tl.spans.push_back(span(TracePhase::Prefill, 0, 1.0, 4.0));
    tl.spans.push_back(span(TracePhase::Prefill, 1, 1.0, 2.0));
    EXPECT_DEATH(criticalPathFor(tl), "overlaps the previous one");
}

TEST(CriticalPath, ZeroLengthSpansAreDropped)
{
    RequestTimeline tl;
    tl.spans.push_back(span(TracePhase::Queued, 0, 0.0, 0.0));
    tl.spans.push_back(span(TracePhase::Decode, 0, 0.0, 2.0));
    CriticalPath path = criticalPathFor(tl);
    ASSERT_EQ(path.segments.size(), 1u);
    EXPECT_EQ(path.segments[0].phase, TracePhase::Decode);
}

TEST(CriticalPath, AggregateCountsDominanceAndSeconds)
{
    std::map<RequestId, RequestTimeline> timelines;
    // Request 1: queued-dominated on replica 0.
    timelines[RequestId{1}].spans = {
        span(TracePhase::Queued, 0, 0.0, 5.0),
        span(TracePhase::Decode, 0, 5.0, 6.0)};
    // Request 2: also queued-dominated on replica 0.
    timelines[RequestId{2}].spans = {
        span(TracePhase::Queued, 0, 1.0, 4.0),
        span(TracePhase::Decode, 1, 4.0, 5.0)};
    // Request 3: decode-dominated on replica 1.
    timelines[RequestId{3}].spans = {
        span(TracePhase::Queued, 1, 0.0, 1.0),
        span(TracePhase::Decode, 1, 1.0, 9.0)};
    // Request 4 exists but is not in the violated-id set; request 5
    // is asked for but has no timeline.
    timelines[RequestId{4}].spans = {
        span(TracePhase::Decode, 0, 0.0, 50.0)};

    CriticalAggregate agg =
        aggregateCriticalPaths(timelines, {1, 2, 3, 5});
    EXPECT_EQ(agg.requests, 3u);
    EXPECT_DOUBLE_EQ(agg.totalSeconds, 19.0);

    const auto queued0 =
        std::make_pair(static_cast<int>(TracePhase::Queued), 0);
    const auto decode1 =
        std::make_pair(static_cast<int>(TracePhase::Decode), 1);
    ASSERT_TRUE(agg.cells.count(queued0));
    EXPECT_EQ(agg.cells.at(queued0).dominantRequests, 2u);
    EXPECT_DOUBLE_EQ(agg.cells.at(queued0).seconds, 8.0);
    ASSERT_TRUE(agg.cells.count(decode1));
    EXPECT_EQ(agg.cells.at(decode1).dominantRequests, 1u);
}

TEST(CriticalPath, ReportRanksByDominance)
{
    std::map<RequestId, RequestTimeline> timelines;
    timelines[RequestId{1}].spans = {
        span(TracePhase::Starved, 2, 0.0, 6.0),
        span(TracePhase::Decode, 2, 6.0, 8.0)};
    timelines[RequestId{2}].spans = {
        span(TracePhase::Starved, 2, 0.0, 3.0),
        span(TracePhase::Decode, 2, 3.0, 4.0)};
    timelines[RequestId{3}].spans = {
        span(TracePhase::Decode, 0, 0.0, 2.0)};
    CriticalAggregate agg =
        aggregateCriticalPaths(timelines, {1, 2, 3});

    std::ostringstream out;
    writeCriticalPathReport(agg, out);
    const std::string report = out.str();
    // Starvation on replica 2 led 2 of 3 misses: it is named first,
    // with its dominance share.
    std::size_t starved = report.find("starved");
    std::size_t decode = report.find("decode");
    ASSERT_NE(starved, std::string::npos) << report;
    ASSERT_NE(decode, std::string::npos) << report;
    EXPECT_LT(starved, decode);
    EXPECT_NE(report.find("3 served violated request(s)"),
              std::string::npos)
        << report;
}

TEST(CriticalPath, EmptyAggregateReportSaysSo)
{
    std::ostringstream out;
    writeCriticalPathReport(CriticalAggregate{}, out);
    EXPECT_NE(out.str().find("no served violated requests"),
              std::string::npos);
}

TEST(CriticalPath, AggregateCsvRoundTripsExactly)
{
    std::map<RequestId, RequestTimeline> timelines;
    timelines[RequestId{7}].spans = {
        span(TracePhase::Queued, -1, 0.0, 0.125),
        span(TracePhase::Prefill, 0, 0.125, 1.0 / 3.0),
        span(TracePhase::Decode, 0, 1.0 / 3.0, 2.75)};
    CriticalAggregate agg = aggregateCriticalPaths(timelines, {7});

    std::ostringstream out;
    writeCriticalAggregateCsv(agg, out);
    std::istringstream in(out.str());
    CriticalAggregate back = readCriticalAggregateCsv(in);

    EXPECT_EQ(back.requests, agg.requests);
    EXPECT_EQ(back.totalSeconds, agg.totalSeconds);
    ASSERT_EQ(back.cells.size(), agg.cells.size());
    for (const auto &[key, entry] : agg.cells) {
        ASSERT_TRUE(back.cells.count(key));
        EXPECT_EQ(back.cells.at(key).seconds, entry.seconds);
        EXPECT_EQ(back.cells.at(key).dominantRequests,
                  entry.dominantRequests);
    }

    std::ostringstream out2;
    writeCriticalAggregateCsv(back, out2);
    EXPECT_EQ(out.str(), out2.str());
}

TEST(CriticalPathDeathTest, MalformedAggregateCsvIsFatal)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        readCriticalAggregateCsv(in);
    };
    EXPECT_DEATH(parse("nope\n"), "header");
    EXPECT_DEATH(parse("phase,replica,seconds,dominant_requests\n"
                       "decode,0,1.0,1\n"),
                 "no total row");
    EXPECT_DEATH(parse("phase,replica,seconds,dominant_requests\n"
                       "total,-1,1.0,1\n"
                       "warp,0,1.0,1\n"),
                 "unknown phase");
    EXPECT_DEATH(parse("phase,replica,seconds,dominant_requests\n"
                       "total,-1,1.0,1\n"
                       "decode,0,1.0,1\n"
                       "decode,0,2.0,1\n"),
                 "duplicate cell");
}

TEST(CriticalPathDeathTest, NegativeDominantRequestsIsFatal)
{
    // dominant_requests is a count: "-1" must not wrap to 2^64 - 1.
    std::istringstream in("phase,replica,seconds,dominant_requests\n"
                          "total,-1,1.0,1\n"
                          "decode,0,1.0,-1\n");
    EXPECT_DEATH(readCriticalAggregateCsv(in),
                 "critical-path CSV line 3: field 'dominant_requests': "
                 "not an unsigned integer: '-1'");
}

} // namespace
} // namespace qoserve
