/**
 * @file
 * Trace exporter implementation.
 */

#include "obs/trace_export.hh"

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

int
pidOf(int replica)
{
    return replica < 0 ? 0 : replica + 1;
}

/**
 * Writes trace_event objects, one per line, comma-separated. An event
 * opened by spanBegin() or instant() takes arg()s and ends with
 * close().
 */
class PerfettoEvents
{
  public:
    explicit PerfettoEvents(RowWriter &row) : row_(row) {}

    /** Start the next line; the caller writes the whole object. */
    RowWriter &line()
    {
        if (!first_)
            row_ << ",\n";
        first_ = false;
        return row_;
    }

    PerfettoEvents &spanBegin(const char *name, SimTime t, int pid,
                              std::uint64_t tid)
    {
        line() << "{\"ph\":\"B\",\"name\":\"" << name
               << "\",\"cat\":\"qoserve\"";
        return place(t, pid, tid);
    }

    void spanEnd(SimTime t, int pid, std::uint64_t tid)
    {
        line() << "{\"ph\":\"E\"";
        place(t, pid, tid).close();
    }

    PerfettoEvents &instant(const char *name, SimTime t, int pid,
                            std::uint64_t tid)
    {
        line() << "{\"ph\":\"i\",\"name\":\"" << name
               << "\",\"cat\":\"qoserve\",\"s\":\"t\"";
        return place(t, pid, tid);
    }

    template <typename T>
    PerfettoEvents &arg(const char *key, const T &value)
    {
        row_ << (hasArgs_ ? ",\"" : ",\"args\":{\"") << key << "\":"
             << value;
        hasArgs_ = true;
        return *this;
    }

    void close()
    {
        row_ << (hasArgs_ ? "}}" : "}");
        hasArgs_ = false;
    }

  private:
    /** Timestamp in microseconds with 3 fixed decimals (byte-
     *  deterministic across platforms, sub-nanosecond resolution),
     *  then the track. */
    PerfettoEvents &place(SimTime t, int pid, std::uint64_t tid)
    {
        row_ << ",\"ts\":" << FixedDecimals{t.seconds() * 1e6, 3}
             << ",\"pid\":" << pid << ",\"tid\":" << tid;
        return *this;
    }

    RowWriter &row_;
    bool first_ = true;
    bool hasArgs_ = false;
};

} // namespace

void
writePerfettoJson(const std::vector<TraceEvent> &events,
                  std::ostream &out)
{
    RowWriter row(out);
    row << "{\"traceEvents\":[\n";
    PerfettoEvents json(row);

    // Track metadata: pid 0 is the cluster front door; each replica
    // is a process whose tid 0 is the engine track. Replica pids are
    // emitted in sorted order — deterministic output.
    std::set<int> replicas;
    for (const TraceEvent &ev : events) {
        if (ev.replica >= 0)
            replicas.insert(ev.replica);
    }
    json.line() << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
                   "\"tid\":0,\"args\":{\"name\":\"cluster\"}}";
    for (int r : replicas) {
        json.line() << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
                    << pidOf(r)
                    << ",\"tid\":0,\"args\":{\"name\":\"replica " << r
                    << "\"}}";
        json.line() << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
                    << pidOf(r)
                    << ",\"tid\":0,\"args\":{\"name\":\"engine\"}}";
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
        const int pid = pidOf(ev.replica);
        switch (ev.kind) {
          case TraceEventKind::IterStart:
            json.spanBegin("iter", ev.time, pid, 0)
                .arg("prefill_tokens", ev.arg)
                .arg("decodes", static_cast<long long>(ev.value))
                .close();
            engineOpen[ev.replica] = true;
            break;
          case TraceEventKind::IterEnd:
            if (engineOpen[ev.replica]) {
                json.spanEnd(ev.time, pid, 0);
                engineOpen[ev.replica] = false;
            }
            break;
          case TraceEventKind::Arrival:
            json.instant("arrival", ev.time, 0, tid).close();
            break;
          case TraceEventKind::AdmissionReject:
            json.instant("admission-reject", ev.time, 0, tid).close();
            break;
          case TraceEventKind::CacheHit:
            json.instant("cache-hit", ev.time, pid, tid)
                .arg("tokens", ev.arg)
                .close();
            break;
          case TraceEventKind::CacheEvict:
            json.instant("cache-evict", ev.time, pid, 0)
                .arg("blocks", ev.arg)
                .close();
            break;
          case TraceEventKind::Relegate:
            json.instant("relegate", ev.time, pid, tid).close();
            break;
          case TraceEventKind::Crash:
            json.instant("crash", ev.time, pid, 0).close();
            break;
          case TraceEventKind::Recover:
            json.instant("recover", ev.time, pid, 0).close();
            break;
          case TraceEventKind::StragglerStart:
            json.instant("straggler-start", ev.time, pid, 0)
                .arg("factor", FixedDecimals{ev.value, 3})
                .close();
            break;
          case TraceEventKind::StragglerEnd:
            json.instant("straggler-end", ev.time, pid, 0).close();
            break;
          case TraceEventKind::ZoneOutage:
            json.instant("zone-outage", ev.time, 0, 0)
                .arg("zone", ev.arg)
                .close();
            break;
          case TraceEventKind::ZoneRestore:
            json.instant("zone-restore", ev.time, 0, 0)
                .arg("zone", ev.arg)
                .close();
            break;
          case TraceEventKind::PartitionStart:
            json.instant("partition-start", ev.time, 0, 0)
                .arg("blinded", ev.arg)
                .close();
            break;
          case TraceEventKind::PartitionEnd:
            json.instant("partition-end", ev.time, 0, 0).close();
            break;
          case TraceEventKind::BreakerOpen:
            json.instant("breaker-open", ev.time, pid, 0)
                .arg("failures", ev.arg)
                .close();
            break;
          case TraceEventKind::BreakerClose:
            json.instant("breaker-close", ev.time, pid, 0).close();
            break;
          case TraceEventKind::BrownoutStep:
            json.instant("brownout-step", ev.time, 0, 0)
                .arg("level", ev.arg)
                .close();
            break;
          case TraceEventKind::AlertRaised:
            json.instant("slo-alert-raised", ev.time, 0, 0)
                .arg("tier", ev.arg)
                .arg("burn", FixedDecimals{ev.value, 3})
                .close();
            break;
          case TraceEventKind::AlertCleared:
            json.instant("slo-alert-cleared", ev.time, 0, 0)
                .arg("tier", ev.arg)
                .close();
            break;
          default: {
            if (ev.request == kNoTraceRequest)
                break;
            SpanState &st = state[ev.request];
            Transition tr = transitionFor(ev, st);
            if (tr.close) {
                json.spanEnd(ev.time, pidOf(st.replica), tid);
                st.open = false;
            }
            if (tr.openNew) {
                json.spanBegin(tracePhaseName(tr.phase), ev.time,
                               pidOf(tr.replica), tid);
                if (ev.kind == TraceEventKind::ChunkStart)
                    json.arg("tokens", ev.arg);
                json.close();
                st = {true, tr.phase, tr.replica, ev.time};
            }
            if (ev.kind == TraceEventKind::Finish)
                json.instant("finish", ev.time, pid, tid).close();
            else if (ev.kind == TraceEventKind::RequestFailed)
                json.instant("failed", ev.time, pid, tid).close();
            else if (ev.kind == TraceEventKind::RetryExhausted)
                json.instant("abandoned", ev.time, 0, tid).close();
            else if (ev.kind == TraceEventKind::DeadlineCancel)
                json.instant("deadline-cancelled", ev.time, 0, tid)
                    .close();
            else if (ev.kind == TraceEventKind::BrownoutShed)
                json.instant("brownout-shed", ev.time, 0, tid).close();
            break;
          }
        }
    }

    // Close anything a truncated stream left open so B/E pairs always
    // balance (both maps iterate in sorted key order).
    const SimTime last = events.empty() ? SimTime{} : events.back().time;
    for (const auto &entry : state) {
        if (entry.second.open) {
            json.spanEnd(last, pidOf(entry.second.replica),
                         requestTid(entry.first));
        }
    }
    for (const auto &entry : engineOpen) {
        if (entry.second)
            json.spanEnd(last, pidOf(entry.first), 0);
    }

    row << "\n],\"displayTimeUnit\":\"ms\"}\n";
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
