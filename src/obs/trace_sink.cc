/**
 * @file
 * Trace sink implementation: ordered event store and CSV round trip.
 */

#include "obs/trace_sink.hh"

#include <istream>
#include <ostream>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

const char *const kTraceCsvHeader = "event,time,request,replica,arg,value";

TraceEventKind
kindByName(const CsvReader &csv)
{
    for (int k = 0; k < kTraceEventKinds; ++k) {
        auto kind = static_cast<TraceEventKind>(k);
        if (csv.field(0) == traceEventKindName(kind))
            return kind;
    }
    csv.fail("unknown event kind: '", csv.field(0), "'");
}

} // namespace

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Arrival:
        return "arrival";
      case TraceEventKind::AdmissionReject:
        return "admission-reject";
      case TraceEventKind::Dispatch:
        return "dispatch";
      case TraceEventKind::IterStart:
        return "iter-start";
      case TraceEventKind::IterEnd:
        return "iter-end";
      case TraceEventKind::ChunkStart:
        return "chunk-start";
      case TraceEventKind::ChunkEnd:
        return "chunk-end";
      case TraceEventKind::Preempt:
        return "preempt";
      case TraceEventKind::Relegate:
        return "relegate";
      case TraceEventKind::Finish:
        return "finish";
      case TraceEventKind::CacheHit:
        return "cache-hit";
      case TraceEventKind::CacheEvict:
        return "cache-evict";
      case TraceEventKind::Crash:
        return "crash";
      case TraceEventKind::Recover:
        return "recover";
      case TraceEventKind::StragglerStart:
        return "straggler-start";
      case TraceEventKind::StragglerEnd:
        return "straggler-end";
      case TraceEventKind::RequestFailed:
        return "request-failed";
      case TraceEventKind::RetryQueued:
        return "retry-queued";
      case TraceEventKind::RetryExhausted:
        return "retry-exhausted";
      case TraceEventKind::ZoneOutage:
        return "zone-outage";
      case TraceEventKind::ZoneRestore:
        return "zone-restore";
      case TraceEventKind::PartitionStart:
        return "partition-start";
      case TraceEventKind::PartitionEnd:
        return "partition-end";
      case TraceEventKind::BreakerOpen:
        return "breaker-open";
      case TraceEventKind::BreakerClose:
        return "breaker-close";
      case TraceEventKind::BrownoutStep:
        return "brownout-step";
      case TraceEventKind::DeadlineCancel:
        return "deadline-cancel";
      case TraceEventKind::BrownoutShed:
        return "brownout-shed";
      case TraceEventKind::AlertRaised:
        return "slo-alert-raised";
      case TraceEventKind::AlertCleared:
        return "slo-alert-cleared";
    }
    QOSERVE_PANIC("unknown trace event kind");
}

void
TraceSink::emit(const TraceEvent &ev)
{
    QOSERVE_ASSERT(events_.empty() || ev.time >= events_.back().time,
                   "trace event at ", ev.time,
                   " precedes the stream tail at ",
                   events_.back().time);
    events_.push_back(ev);
}

void
TraceSink::writeCsv(std::ostream &out) const
{
    // max_digits10 makes the double fields round-trip exactly, so a
    // written trace re-read by the explainer carries the same
    // timestamps the exporters saw.
    RowWriter row(out, 17);
    row << kTraceCsvHeader << '\n';
    for (const TraceEvent &ev : events_) {
        row << traceEventKindName(ev.kind) << ',' << ev.time.seconds()
            << ',';
        if (ev.request == kNoTraceRequest)
            row << -1;
        else
            row << ev.request;
        row << ',' << ev.replica << ',' << ev.arg << ',' << ev.value
            << '\n';
    }
}

void
TraceSink::writeCsvFile(const std::string &path) const
{
    writeArtefactFile(path, "trace",
                      [this](std::ostream &out) { writeCsv(out); });
}

std::vector<TraceEvent>
readTraceCsv(std::istream &in)
{
    std::vector<TraceEvent> events;
    CsvReader csv(in, "trace", kTraceCsvHeader);
    while (csv.next()) {
        TraceEvent ev;
        ev.kind = kindByName(csv);
        ev.time = SimTime{csv.number<double>(1)};
        ev.request = csv.field(2) == "-1" ? kNoTraceRequest
                                          : csv.number<std::uint64_t>(2);
        ev.replica = csv.number<int>(3);
        ev.arg = csv.number<std::int64_t>(4);
        ev.value = csv.number<double>(5);
        events.push_back(ev);
    }
    return events;
}

std::vector<TraceEvent>
readTraceCsvFile(const std::string &path)
{
    return readArtefactFile(path, "trace", [](std::istream &in) {
        return readTraceCsv(in);
    });
}

} // namespace qoserve
