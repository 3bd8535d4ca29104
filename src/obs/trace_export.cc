/**
 * @file
 * Trace exporter implementation.
 */

#include "obs/trace_export.hh"

#include <cstdio>
#include <ostream>
#include <set>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

const char *
tracePhaseName(TracePhase phase)
{
    switch (phase) {
      case TracePhase::Queued:
        return "queued";
      case TracePhase::Prefill:
        return "prefill-running";
      case TracePhase::Starved:
        return "prefill-starved";
      case TracePhase::Preempted:
        return "stalled-by-preemption";
      case TracePhase::Decode:
        return "decode";
      case TracePhase::Retry:
        return "retry";
    }
    QOSERVE_PANIC("unknown trace phase");
}

SimTime
RequestTimeline::lastSpanEnd() const
{
    return spans.empty() ? kTimeNever : spans.back().end;
}

namespace {

/** Open-span state of one request while folding the stream. */
struct SpanState
{
    bool open = false;
    TracePhase phase = TracePhase::Queued;
    int replica = -1;
    SimTime since;
};

/** What a request-lifecycle event does to the open span. */
struct Transition
{
    bool close = false;
    bool openNew = false;
    TracePhase phase = TracePhase::Queued;
    int replica = -1;
};

/**
 * The one shared state machine: every transition closes the open span
 * (if any) at the event time and opens the next phase at the same
 * instant, so a request's spans tile its served lifetime without
 * gaps or overlaps.
 */
Transition
transitionFor(const TraceEvent &ev, const SpanState &st)
{
    Transition tr;
    switch (ev.kind) {
      case TraceEventKind::Dispatch:
        tr = {st.open, true, TracePhase::Queued, ev.replica};
        break;
      case TraceEventKind::ChunkStart:
        tr = {st.open, true, TracePhase::Prefill, ev.replica};
        break;
      case TraceEventKind::ChunkEnd:
        tr = {st.open, true,
              ev.arg > 0 ? TracePhase::Starved : TracePhase::Decode,
              ev.replica};
        break;
      case TraceEventKind::Preempt:
        tr = {st.open, true, TracePhase::Preempted, ev.replica};
        break;
      case TraceEventKind::RetryQueued:
        // A re-dispatch that finds every replica down re-queues from
        // inside the retry phase; the span simply continues.
        if (!(st.open && st.phase == TracePhase::Retry))
            tr = {st.open, true, TracePhase::Retry, -1};
        break;
      case TraceEventKind::Finish:
      case TraceEventKind::RequestFailed:
      case TraceEventKind::RetryExhausted:
      case TraceEventKind::DeadlineCancel:
        tr.close = st.open;
        break;
      default:
        break; // Instants and replica-level events: no span change.
    }
    return tr;
}

} // namespace

std::map<RequestId, RequestTimeline>
buildRequestTimelines(const std::vector<TraceEvent> &events)
{
    std::map<RequestId, RequestTimeline> timelines;
    std::map<std::uint64_t, SpanState> state;

    for (const TraceEvent &ev : events) {
        if (ev.request == kNoTraceRequest)
            continue;
        RequestTimeline &tl = timelines[RequestId{ev.request}];
        switch (ev.kind) {
          case TraceEventKind::Arrival:
            tl.arrival = ev.time;
            break;
          case TraceEventKind::AdmissionReject:
            tl.rejected = true;
            break;
          case TraceEventKind::Finish:
            tl.finish = ev.time;
            break;
          case TraceEventKind::RetryExhausted:
            tl.abandoned = true;
            break;
          case TraceEventKind::DeadlineCancel:
            tl.cancelled = true;
            break;
          case TraceEventKind::BrownoutShed:
            tl.shed = true;
            break;
          case TraceEventKind::RequestFailed:
            ++tl.failures;
            break;
          case TraceEventKind::CacheHit:
            tl.cachedTokens += ev.arg;
            break;
          default:
            break;
        }
        SpanState &st = state[ev.request];
        Transition tr = transitionFor(ev, st);
        if (tr.close) {
            tl.spans.push_back(
                {st.phase, st.replica, st.since, ev.time});
            st.open = false;
        }
        if (tr.openNew)
            st = {true, tr.phase, tr.replica, ev.time};
    }

    // A truncated stream (tests, partial exports) can leave spans
    // open; close them at the stream's final timestamp.
    const SimTime last = events.empty() ? SimTime{} : events.back().time;
    for (auto &entry : state) {
        const SpanState &st = entry.second;
        if (st.open) {
            timelines[RequestId{entry.first}].spans.push_back(
                {st.phase, st.replica, st.since, last});
        }
    }
    return timelines;
}

namespace {

/** Microseconds with fixed 3-decimal formatting: byte-deterministic
 *  across platforms, sub-nanosecond resolution. */
std::string
fmtTs(SimTime t)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", t.seconds() * 1e6);
    return buf;
}

/** Fixed 3-decimal double (straggler factors and the like). */
std::string
fmtFixed3(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

/** Emits one JSON object per line with leading commas handled. */
class JsonLines
{
  public:
    explicit JsonLines(std::ostream &out) : out_(out) {}

    void
    line(const std::string &body)
    {
        if (!first_)
            out_ << ",\n";
        first_ = false;
        out_ << body;
    }

  private:
    std::ostream &out_;
    bool first_ = true;
};

int
pidOf(int replica)
{
    return replica < 0 ? 0 : replica + 1;
}

std::string
durEvent(const char *ph, const char *name, SimTime t, int pid,
         std::uint64_t tid, const std::string &args = "")
{
    std::string s = "{\"ph\":\"";
    s += ph;
    s += "\"";
    if (name != nullptr) {
        s += ",\"name\":\"";
        s += name;
        s += "\",\"cat\":\"qoserve\"";
    }
    s += ",\"ts\":" + fmtTs(t);
    s += ",\"pid\":" + std::to_string(pid);
    s += ",\"tid\":" + std::to_string(tid);
    if (!args.empty())
        s += ",\"args\":{" + args + "}";
    s += "}";
    return s;
}

std::string
instant(const char *name, SimTime t, int pid, std::uint64_t tid,
        const std::string &args = "")
{
    std::string s = "{\"ph\":\"i\",\"name\":\"";
    s += name;
    s += "\",\"cat\":\"qoserve\",\"s\":\"t\"";
    s += ",\"ts\":" + fmtTs(t);
    s += ",\"pid\":" + std::to_string(pid);
    s += ",\"tid\":" + std::to_string(tid);
    if (!args.empty())
        s += ",\"args\":{" + args + "}";
    s += "}";
    return s;
}

} // namespace

void
writePerfettoJson(const std::vector<TraceEvent> &events,
                  std::ostream &out)
{
    out << "{\"traceEvents\":[\n";
    JsonLines json(out);

    // Track metadata: pid 0 is the cluster front door; each replica
    // is a process whose tid 0 is the engine track. Replica pids are
    // emitted in sorted order — deterministic output.
    std::set<int> replicas;
    for (const TraceEvent &ev : events) {
        if (ev.replica >= 0)
            replicas.insert(ev.replica);
    }
    json.line("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
              "\"tid\":0,\"args\":{\"name\":\"cluster\"}}");
    for (int r : replicas) {
        json.line("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
                  std::to_string(pidOf(r)) +
                  ",\"tid\":0,\"args\":{\"name\":\"replica " +
                  std::to_string(r) + "\"}}");
        json.line("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
                  std::to_string(pidOf(r)) +
                  ",\"tid\":0,\"args\":{\"name\":\"engine\"}}");
    }

    std::map<std::uint64_t, SpanState> state;
    std::map<int, bool> engineOpen;

    auto requestTid = [](std::uint64_t request) {
        // tid 0 is the engine track, so request ids shift up by one.
        return request + 1;
    };

    for (const TraceEvent &ev : events) {
        const std::uint64_t tid =
            ev.request == kNoTraceRequest ? 0 : requestTid(ev.request);
        switch (ev.kind) {
          case TraceEventKind::IterStart:
            json.line(durEvent(
                "B", "iter", ev.time, pidOf(ev.replica), 0,
                "\"prefill_tokens\":" + std::to_string(ev.arg) +
                    ",\"decodes\":" +
                    std::to_string(static_cast<long long>(ev.value))));
            engineOpen[ev.replica] = true;
            break;
          case TraceEventKind::IterEnd:
            if (engineOpen[ev.replica]) {
                json.line(durEvent("E", nullptr, ev.time,
                                   pidOf(ev.replica), 0));
                engineOpen[ev.replica] = false;
            }
            break;
          case TraceEventKind::Arrival:
            json.line(instant("arrival", ev.time, 0, tid));
            break;
          case TraceEventKind::AdmissionReject:
            json.line(instant("admission-reject", ev.time, 0, tid));
            break;
          case TraceEventKind::CacheHit:
            json.line(instant("cache-hit", ev.time, pidOf(ev.replica),
                              tid,
                              "\"tokens\":" + std::to_string(ev.arg)));
            break;
          case TraceEventKind::CacheEvict:
            json.line(instant("cache-evict", ev.time,
                              pidOf(ev.replica), 0,
                              "\"blocks\":" + std::to_string(ev.arg)));
            break;
          case TraceEventKind::Relegate:
            json.line(
                instant("relegate", ev.time, pidOf(ev.replica), tid));
            break;
          case TraceEventKind::Crash:
            json.line(instant("crash", ev.time, pidOf(ev.replica), 0));
            break;
          case TraceEventKind::Recover:
            json.line(
                instant("recover", ev.time, pidOf(ev.replica), 0));
            break;
          case TraceEventKind::StragglerStart:
            json.line(instant("straggler-start", ev.time,
                              pidOf(ev.replica), 0,
                              "\"factor\":" + fmtFixed3(ev.value)));
            break;
          case TraceEventKind::StragglerEnd:
            json.line(instant("straggler-end", ev.time,
                              pidOf(ev.replica), 0));
            break;
          case TraceEventKind::ZoneOutage:
            json.line(instant("zone-outage", ev.time, 0, 0,
                              "\"zone\":" + std::to_string(ev.arg)));
            break;
          case TraceEventKind::ZoneRestore:
            json.line(instant("zone-restore", ev.time, 0, 0,
                              "\"zone\":" + std::to_string(ev.arg)));
            break;
          case TraceEventKind::PartitionStart:
            json.line(instant("partition-start", ev.time, 0, 0,
                              "\"blinded\":" + std::to_string(ev.arg)));
            break;
          case TraceEventKind::PartitionEnd:
            json.line(instant("partition-end", ev.time, 0, 0));
            break;
          case TraceEventKind::BreakerOpen:
            json.line(instant("breaker-open", ev.time,
                              pidOf(ev.replica), 0,
                              "\"failures\":" + std::to_string(ev.arg)));
            break;
          case TraceEventKind::BreakerClose:
            json.line(instant("breaker-close", ev.time,
                              pidOf(ev.replica), 0));
            break;
          case TraceEventKind::BrownoutStep:
            json.line(instant("brownout-step", ev.time, 0, 0,
                              "\"level\":" + std::to_string(ev.arg)));
            break;
          case TraceEventKind::AlertRaised:
            json.line(instant("slo-alert-raised", ev.time, 0, 0,
                              "\"tier\":" + std::to_string(ev.arg) +
                                  ",\"burn\":" + fmtFixed3(ev.value)));
            break;
          case TraceEventKind::AlertCleared:
            json.line(instant("slo-alert-cleared", ev.time, 0, 0,
                              "\"tier\":" + std::to_string(ev.arg)));
            break;
          default: {
            if (ev.request == kNoTraceRequest)
                break;
            SpanState &st = state[ev.request];
            Transition tr = transitionFor(ev, st);
            if (tr.close) {
                json.line(durEvent("E", nullptr, ev.time,
                                   pidOf(st.replica), tid));
                st.open = false;
            }
            if (tr.openNew) {
                std::string args;
                if (ev.kind == TraceEventKind::ChunkStart)
                    args = "\"tokens\":" + std::to_string(ev.arg);
                json.line(durEvent("B", tracePhaseName(tr.phase),
                                   ev.time, pidOf(tr.replica), tid,
                                   args));
                st = {true, tr.phase, tr.replica, ev.time};
            }
            if (ev.kind == TraceEventKind::Finish)
                json.line(instant("finish", ev.time,
                                  pidOf(ev.replica), tid));
            else if (ev.kind == TraceEventKind::RequestFailed)
                json.line(instant("failed", ev.time,
                                  pidOf(ev.replica), tid));
            else if (ev.kind == TraceEventKind::RetryExhausted)
                json.line(instant("abandoned", ev.time, 0, tid));
            else if (ev.kind == TraceEventKind::DeadlineCancel)
                json.line(instant("deadline-cancelled", ev.time, 0,
                                  tid));
            else if (ev.kind == TraceEventKind::BrownoutShed)
                json.line(instant("brownout-shed", ev.time, 0, tid));
            break;
          }
        }
    }

    // Close anything a truncated stream left open so B/E pairs always
    // balance (both maps iterate in sorted key order).
    const SimTime last = events.empty() ? SimTime{} : events.back().time;
    for (const auto &entry : state) {
        if (entry.second.open) {
            json.line(durEvent("E", nullptr, last,
                               pidOf(entry.second.replica),
                               requestTid(entry.first)));
        }
    }
    for (const auto &entry : engineOpen) {
        if (entry.second)
            json.line(durEvent("E", nullptr, last, pidOf(entry.first),
                               0));
    }

    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
writePerfettoJsonFile(const std::vector<TraceEvent> &events,
                      const std::string &path)
{
    writeArtefactFile(path, "trace", [&](std::ostream &out) {
        writePerfettoJson(events, out);
    });
}

} // namespace qoserve
