/**
 * @file
 * Tests for the trace sink, the TraceScope handle, and the CSV
 * round trip.
 */

#include "obs/trace_sink.hh"

#include <gtest/gtest.h>

#include <sstream>

namespace qoserve {
namespace {

TEST(TraceSink, ScopeWithoutSinkIsInert)
{
    // No clock either: emit() must not dereference anything.
    TraceScope scope;
    EXPECT_FALSE(scope.on());
    scope.emit(TraceEventKind::Arrival, 7);
    scope.emitOn(ReplicaId{3}, TraceEventKind::Dispatch, 7);
}

TEST(TraceSink, ScopeStampsClockAndReplica)
{
    TraceSink sink;
    EventQueue eq;
    TraceScope scope{&sink, &eq, 2};
    ASSERT_TRUE(scope.on());

    eq.schedule(SimTime{1.5}, [&] {
        scope.emit(TraceEventKind::ChunkStart, 9, 256);
        scope.emitOn(ReplicaId{5}, TraceEventKind::Dispatch, 9, 1);
    });
    eq.run();

    ASSERT_EQ(sink.size(), 2u);
    auto it = sink.events().begin();
    const TraceEvent chunk = *it++;
    EXPECT_EQ(chunk.kind, TraceEventKind::ChunkStart);
    EXPECT_EQ(chunk.time, SimTime{1.5});
    EXPECT_EQ(chunk.request, 9u);
    EXPECT_EQ(chunk.replica, 2);
    EXPECT_EQ(chunk.arg, 256);
    const TraceEvent dispatch = *it;
    EXPECT_EQ(dispatch.replica, 5); // emitOn overrides the scope's.
    EXPECT_EQ(dispatch.arg, 1);
}

TEST(TraceSinkDeathTest, OutOfOrderEmitPanics)
{
    TraceSink sink;
    sink.emit({TraceEventKind::Arrival, SimTime{2.0}, 1, -1, 0, 0.0});
    EXPECT_DEATH(
        sink.emit({TraceEventKind::Arrival, SimTime{1.0}, 2, -1, 0, 0.0}),
        "precedes the stream tail");
}

TEST(TraceSink, CsvRoundTripsExactly)
{
    TraceSink sink;
    sink.emit({TraceEventKind::Arrival, SimTime{0.0}, 4, -1, 0, 0.0});
    sink.emit({TraceEventKind::Dispatch, SimTime{1.0 / 3.0}, 4, 1, 2, 0.0});
    sink.emit(
        {TraceEventKind::IterStart, SimTime{0.5}, kNoTraceRequest, 1, 512, 3.0});
    sink.emit({TraceEventKind::StragglerStart, SimTime{0.75}, kNoTraceRequest, 0,
               0, 2.5});

    std::stringstream buffer;
    sink.writeCsv(buffer);
    TraceLog parsed = readTraceCsv(buffer);
    ASSERT_EQ(parsed.size(), sink.size());
    std::size_t i = 0;
    auto want = sink.events().begin();
    for (const TraceEvent &ev : parsed)
        EXPECT_TRUE(ev == *want++) << "event " << i++;
}

TEST(TraceSink, CsvEncodesNoRequestAsMinusOne)
{
    TraceSink sink;
    sink.emit({TraceEventKind::Crash, SimTime{1.0}, kNoTraceRequest, 2, 0, 0.0});
    std::stringstream buffer;
    sink.writeCsv(buffer);
    EXPECT_NE(buffer.str().find("crash,1,-1,2,0,0"), std::string::npos)
        << buffer.str();
}

TEST(TraceSink, EveryKindNameRoundTrips)
{
    TraceSink sink;
    for (int k = 0; k < kTraceEventKinds; ++k) {
        sink.emit({static_cast<TraceEventKind>(k),
                   SimTime{static_cast<double>(k)}, 1, 0, 0, 0.0});
    }
    std::stringstream buffer;
    sink.writeCsv(buffer);
    TraceLog parsed = readTraceCsv(buffer);
    ASSERT_EQ(parsed.size(), static_cast<std::size_t>(kTraceEventKinds));
    int k = 0;
    for (const TraceEvent &ev : parsed) {
        EXPECT_EQ(ev.kind, static_cast<TraceEventKind>(k)) << k;
        ++k;
    }
}

TEST(TraceSinkDeathTest, CsvBadHeaderIsFatal)
{
    std::stringstream in("kind,when\narrival,1\n");
    EXPECT_DEATH(readTraceCsv(in), "unexpected header");
}

TEST(TraceSinkDeathTest, CsvUnknownKindIsFatalWithLineNumber)
{
    std::stringstream in(
        "event,time,request,replica,arg,value\nwarp,1,0,0,0,0\n");
    EXPECT_DEATH(readTraceCsv(in), "line 2.*unknown event kind");
}

TEST(TraceSinkDeathTest, CsvWrongFieldCountIsFatal)
{
    std::stringstream in(
        "event,time,request,replica,arg,value\narrival,1,0\n");
    EXPECT_DEATH(readTraceCsv(in), "expected 6 fields");
}

} // namespace
} // namespace qoserve
