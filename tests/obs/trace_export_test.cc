/**
 * @file
 * Tests for timeline reconstruction and the Perfetto exporter.
 */

#include "obs/trace_export.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>

#include "obs/explain.hh"

namespace qoserve {
namespace {

TraceEvent
ev(TraceEventKind kind, SimTime t, std::uint64_t request, int replica,
   std::int64_t arg = 0, double value = 0.0)
{
    return {kind, t, request, replica, arg, value};
}

/** A log holding @p events in order. */
TraceLog
logOf(std::initializer_list<TraceEvent> events)
{
    TraceLog log;
    for (const TraceEvent &e : events)
        log.append(e);
    return log;
}

/** The canonical served request: queue, two chunks, decode, finish. */
TraceLog
servedStream()
{
    return logOf({
        ev(TraceEventKind::Arrival, SimTime{0.0}, 1, -1),
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::ChunkStart, SimTime{1.0}, 1, 0, 512),
        ev(TraceEventKind::ChunkEnd, SimTime{2.0}, 1, 0, 100), // 100 left
        ev(TraceEventKind::ChunkStart, SimTime{3.0}, 1, 0, 100),
        ev(TraceEventKind::ChunkEnd, SimTime{4.0}, 1, 0, 0), // prefill done
        ev(TraceEventKind::Finish, SimTime{6.0}, 1, 0),
    });
}

TEST(TraceExport, TimelineTilesServedLifetimeWithoutGaps)
{
    auto timelines = buildRequestTimelines(servedStream());
    ASSERT_EQ(timelines.size(), 1u);
    const RequestTimeline &tl = timelines.at(RequestId{1});

    EXPECT_EQ(tl.arrival, SimTime{0.0});
    EXPECT_EQ(tl.finish, SimTime{6.0});
    EXPECT_FALSE(tl.rejected);
    EXPECT_EQ(tl.failures, 0);

    ASSERT_EQ(tl.spans.size(), 5u);
    EXPECT_EQ(tl.spans[0].phase, TracePhase::Queued);
    EXPECT_EQ(tl.spans[1].phase, TracePhase::Prefill);
    EXPECT_EQ(tl.spans[2].phase, TracePhase::Starved);
    EXPECT_EQ(tl.spans[3].phase, TracePhase::Prefill);
    EXPECT_EQ(tl.spans[4].phase, TracePhase::Decode);

    // Gap-free: every span opens where the previous one closed.
    EXPECT_EQ(tl.spans.front().begin, SimTime{0.0});
    for (std::size_t i = 1; i < tl.spans.size(); ++i)
        EXPECT_EQ(tl.spans[i].begin, tl.spans[i - 1].end) << i;
    EXPECT_EQ(tl.spans.back().end, SimTime{6.0});
}

TEST(TraceExport, BreakdownAttributesEverything)
{
    auto timelines = buildRequestTimelines(servedStream());
    PhaseBreakdown bd = breakdownFor(timelines.at(RequestId{1}), SimTime{0.0});
    EXPECT_TRUE(bd.served);
    EXPECT_EQ(bd.endToEnd, 6.0);
    EXPECT_EQ(bd.seconds[static_cast<int>(TracePhase::Queued)], 1.0);
    EXPECT_EQ(bd.seconds[static_cast<int>(TracePhase::Prefill)], 2.0);
    EXPECT_EQ(bd.seconds[static_cast<int>(TracePhase::Starved)], 1.0);
    EXPECT_EQ(bd.seconds[static_cast<int>(TracePhase::Decode)], 2.0);
    EXPECT_EQ(bd.residual, 0.0);
    EXPECT_EQ(bd.coverage(), 1.0);
}

TEST(TraceExport, PreemptionOpensStalledSpan)
{
    auto timelines = buildRequestTimelines(logOf({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::ChunkStart, SimTime{1.0}, 1, 0, 256),
        ev(TraceEventKind::Preempt, SimTime{2.0}, 1, 0),
        ev(TraceEventKind::ChunkStart, SimTime{5.0}, 1, 0, 256),
        ev(TraceEventKind::ChunkEnd, SimTime{6.0}, 1, 0, 0),
        ev(TraceEventKind::Finish, SimTime{7.0}, 1, 0),
    }));
    const RequestTimeline &tl = timelines.at(RequestId{1});
    ASSERT_EQ(tl.spans.size(), 5u);
    EXPECT_EQ(tl.spans[2].phase, TracePhase::Preempted);
    EXPECT_EQ(tl.spans[2].begin, SimTime{2.0});
    EXPECT_EQ(tl.spans[2].end, SimTime{5.0});
}

TEST(TraceExport, CrashRetryOpensRetrySpanAndCountsFailures)
{
    auto timelines = buildRequestTimelines(logOf({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::RequestFailed, SimTime{2.0}, 1, 0),
        ev(TraceEventKind::RetryQueued, SimTime{2.0}, 1, -1, 1),
        // A second RetryQueued from inside the retry phase (all
        // replicas down) must extend, not restart, the span.
        ev(TraceEventKind::RetryQueued, SimTime{3.0}, 1, -1, 2),
        ev(TraceEventKind::Dispatch, SimTime{4.0}, 1, 1, 2),
        ev(TraceEventKind::ChunkStart, SimTime{4.5}, 1, 1, 64),
        ev(TraceEventKind::ChunkEnd, SimTime{5.0}, 1, 1, 0),
        ev(TraceEventKind::Finish, SimTime{5.5}, 1, 1),
    }));
    const RequestTimeline &tl = timelines.at(RequestId{1});
    EXPECT_EQ(tl.failures, 1);
    EXPECT_FALSE(tl.abandoned);
    ASSERT_EQ(tl.spans.size(), 5u);
    EXPECT_EQ(tl.spans[0].phase, TracePhase::Queued);
    EXPECT_EQ(tl.spans[1].phase, TracePhase::Retry);
    EXPECT_EQ(tl.spans[1].begin, SimTime{2.0});
    EXPECT_EQ(tl.spans[1].end, SimTime{4.0});
    EXPECT_EQ(tl.spans[1].replica, -1);
    EXPECT_EQ(tl.spans[2].phase, TracePhase::Queued);
    EXPECT_EQ(tl.spans[2].replica, 1);
}

TEST(TraceExport, AbandonmentClosesTheTimeline)
{
    auto timelines = buildRequestTimelines(logOf({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::RequestFailed, SimTime{1.0}, 1, 0),
        ev(TraceEventKind::RetryQueued, SimTime{1.0}, 1, -1, 1),
        ev(TraceEventKind::RetryExhausted, SimTime{3.0}, 1, -1, 1),
    }));
    const RequestTimeline &tl = timelines.at(RequestId{1});
    EXPECT_TRUE(tl.abandoned);
    ASSERT_EQ(tl.spans.size(), 2u);
    EXPECT_EQ(tl.spans.back().phase, TracePhase::Retry);
    EXPECT_EQ(tl.spans.back().end, SimTime{3.0});
    EXPECT_EQ(tl.lastSpanEnd(), SimTime{3.0});
}

TEST(TraceExport, RejectionYieldsNoSpans)
{
    auto timelines = buildRequestTimelines(logOf({
        ev(TraceEventKind::Arrival, SimTime{1.0}, 7, -1),
        ev(TraceEventKind::AdmissionReject, SimTime{1.0}, 7, -1),
    }));
    const RequestTimeline &tl = timelines.at(RequestId{7});
    EXPECT_TRUE(tl.rejected);
    EXPECT_TRUE(tl.spans.empty());
    EXPECT_EQ(tl.lastSpanEnd(), kTimeNever);
}

TEST(TraceExport, TruncatedStreamClosesOpenSpansAtStreamEnd)
{
    auto timelines = buildRequestTimelines(logOf({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::ChunkStart, SimTime{1.0}, 1, 0, 256),
        ev(TraceEventKind::IterStart, SimTime{2.0}, kNoTraceRequest, 0, 256, 1),
    }));
    const RequestTimeline &tl = timelines.at(RequestId{1});
    ASSERT_EQ(tl.spans.size(), 2u);
    EXPECT_EQ(tl.spans.back().phase, TracePhase::Prefill);
    EXPECT_EQ(tl.spans.back().end, SimTime{2.0}); // last stream timestamp
}

TEST(TraceExport, CacheHitsAccumulateTokens)
{
    auto timelines = buildRequestTimelines(logOf({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::CacheHit, SimTime{0.0}, 1, 0, 128),
        ev(TraceEventKind::RequestFailed, SimTime{1.0}, 1, 0),
        ev(TraceEventKind::RetryQueued, SimTime{1.0}, 1, -1, 1),
        ev(TraceEventKind::Dispatch, SimTime{2.0}, 1, 1, 1),
        ev(TraceEventKind::CacheHit, SimTime{2.0}, 1, 1, 64),
        ev(TraceEventKind::Finish, SimTime{3.0}, 1, 1),
    }));
    EXPECT_EQ(timelines.at(RequestId{1}).cachedTokens, 128 + 64);
}

/** Count occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(TraceExport, PerfettoJsonBalancesDurationPairs)
{
    TraceLog events = servedStream();
    // Engine iterations plus a crash-truncated open chunk on another
    // request: the exporter must still balance every B with an E.
    events.append(
        ev(TraceEventKind::IterStart, SimTime{6.0}, kNoTraceRequest, 0, 512, 2));
    events.append(
        ev(TraceEventKind::IterEnd, SimTime{6.5}, kNoTraceRequest, 0));
    events.append(ev(TraceEventKind::Dispatch, SimTime{7.0}, 2, 0));
    events.append(ev(TraceEventKind::ChunkStart, SimTime{8.0}, 2, 0, 64));

    std::stringstream out;
    writePerfettoJson(events, out);
    const std::string json = out.str();

    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), countOf(json, "\"ph\":\"E\""));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cluster\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"replica 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"prefill-running\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"iter\""), std::string::npos);
}

TEST(TraceExport, PerfettoJsonIsByteDeterministic)
{
    TraceLog events = servedStream();
    std::stringstream a, b;
    writePerfettoJson(events, a);
    writePerfettoJson(events, b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(TraceExport, PerfettoSpuriousIterEndIsDropped)
{
    // A crash-time IterEnd with no open iteration must not emit an
    // unmatched E.
    std::stringstream out;
    writePerfettoJson(
        logOf({ev(TraceEventKind::IterEnd, SimTime{1.0}, kNoTraceRequest, 0,
                  1)}),
        out);
    EXPECT_EQ(countOf(out.str(), "\"ph\":\"E\""), 0u);
}

/**
 * A stream whose request ids arrive out of id order, whose request 3
 * fails and is re-queued after its span closed, and which is cut off
 * with three request spans and two engine iterations still open.
 */
TraceLog
truncatedMixedStream()
{
    using K = TraceEventKind;
    return logOf({
        ev(K::Arrival, SimTime{0.0}, 9, -1),
        ev(K::Dispatch, SimTime{0.0}, 9, 2),
        ev(K::Arrival, SimTime{0.5}, 3, -1),
        ev(K::Dispatch, SimTime{0.5}, 3, 0),
        ev(K::IterStart, SimTime{1.0}, kNoTraceRequest, 2, 128, 1),
        ev(K::ChunkStart, SimTime{1.0}, 9, 2, 128),
        ev(K::Arrival, SimTime{1.25}, 12, -1),
        ev(K::Dispatch, SimTime{1.25}, 12, 1),
        ev(K::IterStart, SimTime{1.5}, kNoTraceRequest, 0, 64, 0),
        ev(K::ChunkStart, SimTime{1.5}, 3, 0, 64),
        ev(K::ChunkEnd, SimTime{2.0}, 9, 2, 0),
        ev(K::IterEnd, SimTime{2.0}, kNoTraceRequest, 2),
        ev(K::ChunkEnd, SimTime{2.0}, 3, 0, 0),
        ev(K::IterEnd, SimTime{2.0}, kNoTraceRequest, 0),
        ev(K::Crash, SimTime{2.5}, kNoTraceRequest, 0),
        ev(K::RequestFailed, SimTime{2.5}, 3, 0),
        ev(K::RetryQueued, SimTime{3.0}, 3, -1, 1),
        ev(K::Dispatch, SimTime{3.5}, 3, 1, 1),
        ev(K::IterStart, SimTime{4.0}, kNoTraceRequest, 1, 32, 1),
        ev(K::ChunkStart, SimTime{4.0}, 12, 1, 32),
        ev(K::IterStart, SimTime{4.25}, kNoTraceRequest, 2, 0, 1),
        ev(K::Arrival, SimTime{4.5}, 5, -1),
        ev(K::Dispatch, SimTime{4.5}, 5, 2),
        ev(K::Finish, SimTime{5.0}, 9, 2),
        ev(K::CacheHit, SimTime{5.0}, 5, 2, 16),
    });
}

TEST(TraceExport, ManyRequestsInFlightKeepTheirOwnSpans)
{
    // 400 requests whose lifetimes overlap heavily, so hundreds of
    // spans are open at once; every fourth never finishes.
    struct Timed
    {
        double t;
        std::uint64_t order;
        TraceEvent ev;
    };
    std::vector<Timed> timed;
    std::uint64_t order = 0;
    auto at = [&](double t, TraceEventKind kind, std::uint64_t request,
                  std::int64_t arg = 0) {
        timed.push_back({t, order++,
                         ev(kind, SimTime{t}, request,
                            static_cast<int>(request % 7), arg)});
    };
    for (std::uint64_t r = 0; r < 400; ++r) {
        // Ids spread out so they hash into each other's probe runs.
        const std::uint64_t id = r * 64 + 3;
        const double t0 = static_cast<double>((r * 37) % 400);
        at(t0, TraceEventKind::Dispatch, id);
        at(t0 + 100.0, TraceEventKind::ChunkStart, id, 16);
        at(t0 + 150.0, TraceEventKind::ChunkEnd, id, 0);
        if (r % 4 != 0)
            at(t0 + 200.0, TraceEventKind::Finish, id);
    }
    std::sort(timed.begin(), timed.end(), [](const Timed &a, const Timed &b) {
        return a.t != b.t ? a.t < b.t : a.order < b.order;
    });
    TraceLog events;
    for (const Timed &t : timed)
        events.append(t.ev);
    const SimTime last = events.back().time;

    auto timelines = buildRequestTimelines(events);
    ASSERT_EQ(timelines.size(), 400u);
    for (std::uint64_t r = 0; r < 400; ++r) {
        const RequestTimeline &tl = timelines.at(RequestId{r * 64 + 3});
        const double t0 = static_cast<double>((r * 37) % 400);
        ASSERT_EQ(tl.spans.size(), 3u) << r;
        EXPECT_EQ(tl.spans[0].phase, TracePhase::Queued);
        EXPECT_EQ(tl.spans[0].begin, SimTime{t0});
        EXPECT_EQ(tl.spans[1].phase, TracePhase::Prefill);
        EXPECT_EQ(tl.spans[1].begin, SimTime{t0 + 100.0});
        EXPECT_EQ(tl.spans[2].phase, TracePhase::Decode);
        EXPECT_EQ(tl.spans[2].begin, SimTime{t0 + 150.0});
        EXPECT_EQ(tl.spans[2].end,
                  r % 4 != 0 ? SimTime{t0 + 200.0} : last);
        EXPECT_EQ(tl.spans[2].replica, static_cast<int>((r * 64 + 3) % 7));
    }

    std::stringstream out;
    writePerfettoJson(events, out);
    EXPECT_EQ(countOf(out.str(), "\"ph\":\"B\""),
              countOf(out.str(), "\"ph\":\"E\""));
    EXPECT_EQ(countOf(out.str(), "\"ph\":\"B\""), 3u * 400u);
}

/** Every field of every timeline, one line per request, in map order. */
std::string
dumpTimelines(const std::map<RequestId, RequestTimeline> &timelines)
{
    std::ostringstream out;
    for (const auto &[id, tl] : timelines) {
        out << id.value() << ": arrival " << tl.arrival.seconds()
            << " finish " << tl.finish.seconds() << " flags "
            << tl.rejected << tl.abandoned << tl.cancelled << tl.shed
            << " failures " << tl.failures << " cached "
            << tl.cachedTokens << " spans";
        for (const PhaseSpan &s : tl.spans) {
            out << ' ' << tracePhaseName(s.phase) << '@' << s.replica
                << '[' << s.begin.seconds() << ',' << s.end.seconds()
                << ']';
        }
        out << '\n';
    }
    return out.str();
}

TEST(TraceExport, TimelinesOfATruncatedStreamAreInIdOrder)
{
    // Request 3's retry span opens after its decode span closed; the
    // three spans still open at the cut end at the last timestamp.
    EXPECT_EQ(dumpTimelines(buildRequestTimelines(truncatedMixedStream())),
              R"(3: arrival 0.5 finish inf flags 0000 failures 1 cached 0 spans queued@0[0.5,1.5] prefill-running@0[1.5,2] decode@0[2,2.5] retry@-1[3,3.5] queued@1[3.5,5]
5: arrival 4.5 finish inf flags 0000 failures 0 cached 16 spans queued@2[4.5,5]
9: arrival 0 finish 5 flags 0000 failures 0 cached 0 spans queued@2[0,1] prefill-running@2[1,2] decode@2[2,5]
12: arrival 1.25 finish inf flags 0000 failures 0 cached 0 spans queued@1[1.25,4] prefill-running@1[4,5]
)");
}

TEST(TraceExport, PerfettoJsonOfATruncatedStreamIsPinned)
{
    // Replicas are declared in id order, and the end-of-stream closes
    // come in request-id order, then engine (replica) order.
    std::stringstream out;
    writePerfettoJson(truncatedMixedStream(), out);
    EXPECT_EQ(out.str(), R"({"traceEvents":[
{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"cluster"}},
{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"replica 0"}},
{"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"engine"}},
{"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"replica 1"}},
{"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"engine"}},
{"ph":"M","name":"process_name","pid":3,"tid":0,"args":{"name":"replica 2"}},
{"ph":"M","name":"thread_name","pid":3,"tid":0,"args":{"name":"engine"}},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":0.000,"pid":0,"tid":10},
{"ph":"B","name":"queued","cat":"qoserve","ts":0.000,"pid":3,"tid":10},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":500000.000,"pid":0,"tid":4},
{"ph":"B","name":"queued","cat":"qoserve","ts":500000.000,"pid":1,"tid":4},
{"ph":"B","name":"iter","cat":"qoserve","ts":1000000.000,"pid":3,"tid":0,"args":{"prefill_tokens":128,"decodes":1}},
{"ph":"E","ts":1000000.000,"pid":3,"tid":10},
{"ph":"B","name":"prefill-running","cat":"qoserve","ts":1000000.000,"pid":3,"tid":10,"args":{"tokens":128}},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":1250000.000,"pid":0,"tid":13},
{"ph":"B","name":"queued","cat":"qoserve","ts":1250000.000,"pid":2,"tid":13},
{"ph":"B","name":"iter","cat":"qoserve","ts":1500000.000,"pid":1,"tid":0,"args":{"prefill_tokens":64,"decodes":0}},
{"ph":"E","ts":1500000.000,"pid":1,"tid":4},
{"ph":"B","name":"prefill-running","cat":"qoserve","ts":1500000.000,"pid":1,"tid":4,"args":{"tokens":64}},
{"ph":"E","ts":2000000.000,"pid":3,"tid":10},
{"ph":"B","name":"decode","cat":"qoserve","ts":2000000.000,"pid":3,"tid":10},
{"ph":"E","ts":2000000.000,"pid":3,"tid":0},
{"ph":"E","ts":2000000.000,"pid":1,"tid":4},
{"ph":"B","name":"decode","cat":"qoserve","ts":2000000.000,"pid":1,"tid":4},
{"ph":"E","ts":2000000.000,"pid":1,"tid":0},
{"ph":"i","name":"crash","cat":"qoserve","s":"t","ts":2500000.000,"pid":1,"tid":0},
{"ph":"E","ts":2500000.000,"pid":1,"tid":4},
{"ph":"i","name":"failed","cat":"qoserve","s":"t","ts":2500000.000,"pid":1,"tid":4},
{"ph":"B","name":"retry","cat":"qoserve","ts":3000000.000,"pid":0,"tid":4},
{"ph":"E","ts":3500000.000,"pid":0,"tid":4},
{"ph":"B","name":"queued","cat":"qoserve","ts":3500000.000,"pid":2,"tid":4},
{"ph":"B","name":"iter","cat":"qoserve","ts":4000000.000,"pid":2,"tid":0,"args":{"prefill_tokens":32,"decodes":1}},
{"ph":"E","ts":4000000.000,"pid":2,"tid":13},
{"ph":"B","name":"prefill-running","cat":"qoserve","ts":4000000.000,"pid":2,"tid":13,"args":{"tokens":32}},
{"ph":"B","name":"iter","cat":"qoserve","ts":4250000.000,"pid":3,"tid":0,"args":{"prefill_tokens":0,"decodes":1}},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":4500000.000,"pid":0,"tid":6},
{"ph":"B","name":"queued","cat":"qoserve","ts":4500000.000,"pid":3,"tid":6},
{"ph":"E","ts":5000000.000,"pid":3,"tid":10},
{"ph":"i","name":"finish","cat":"qoserve","s":"t","ts":5000000.000,"pid":3,"tid":10},
{"ph":"i","name":"cache-hit","cat":"qoserve","s":"t","ts":5000000.000,"pid":3,"tid":6,"args":{"tokens":16}},
{"ph":"E","ts":5000000.000,"pid":2,"tid":4},
{"ph":"E","ts":5000000.000,"pid":3,"tid":6},
{"ph":"E","ts":5000000.000,"pid":2,"tid":13},
{"ph":"E","ts":5000000.000,"pid":2,"tid":0},
{"ph":"E","ts":5000000.000,"pid":3,"tid":0}
],"displayTimeUnit":"ms"}
)");
}

} // namespace
} // namespace qoserve
