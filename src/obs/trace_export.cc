/**
 * @file
 * Trace exporter implementation.
 */

#include "obs/trace_export.hh"

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

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

/**
 * The open spans of a stream fold, keyed by request id. Only requests
 * whose span is open have an entry: a closed SpanState behaves
 * exactly like a default one in transitionFor, so closing a span
 * drops it, and the table holds the requests in flight rather than
 * every request of the run. Open addressing with linear probing and
 * backward-shift deletion; kNoTraceRequest marks an empty slot (the
 * folds skip events that carry it).
 */
class OpenSpans
{
  public:
    OpenSpans() : slots_(kMinSlots) {}

    /**
     * Move @p ev's request through transitionFor and record the
     * result; @p closed receives the span the transition closed.
     */
    Transition advance(const TraceEvent &ev, SpanState &closed)
    {
        std::size_t i = find(ev.request);
        const SpanState st =
            slots_[i].request == kEmpty ? SpanState{} : slots_[i].state;
        Transition tr = transitionFor(ev, st);
        if (tr.close)
            closed = st;
        if (tr.openNew) {
            if (slots_[i].request == kEmpty) {
                slots_[i].request = ev.request;
                ++size_;
            }
            slots_[i].state = {true, tr.phase, tr.replica, ev.time};
            if (size_ * 2 > slots_.size())
                grow();
        } else if (tr.close) {
            erase(i);
        }
        return tr;
    }

    /** The spans still open, in request-id order. */
    std::vector<std::pair<std::uint64_t, SpanState>> sortedOpen() const
    {
        std::vector<std::pair<std::uint64_t, SpanState>> open;
        open.reserve(size_);
        for (const Slot &slot : slots_) {
            if (slot.request != kEmpty)
                open.emplace_back(slot.request, slot.state);
        }
        std::sort(open.begin(), open.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        return open;
    }

  private:
    static constexpr std::uint64_t kEmpty = kNoTraceRequest;
    static constexpr std::size_t kMinSlots = 64;

    struct Slot
    {
        std::uint64_t request = kEmpty;
        SpanState state;
    };

    /** Preferred slot of @p request (Fibonacci hashing). */
    std::size_t home(std::uint64_t request) const
    {
        return static_cast<std::size_t>(
                   request * 0x9E3779B97F4A7C15ull >> 32) &
               (slots_.size() - 1);
    }

    /** The slot holding @p request, or the empty slot ending its
     *  probe run. */
    std::size_t find(std::uint64_t request) const
    {
        std::size_t i = home(request);
        while (slots_[i].request != kEmpty && slots_[i].request != request)
            i = (i + 1) & (slots_.size() - 1);
        return i;
    }

    /** Empty slot @p i, shifting back later entries of its probe run
     *  so every lookup still finds them. */
    void erase(std::size_t i)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (i + 1) & mask; slots_[j].request != kEmpty;
             j = (j + 1) & mask) {
            // The entry at j may fill the hole at i unless its home
            // lies cyclically in (i, j].
            const std::size_t h = home(slots_[j].request);
            if (((j - h) & mask) >= ((j - i) & mask)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i].request = kEmpty;
        --size_;
    }

    void grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        for (const Slot &slot : old) {
            if (slot.request != kEmpty)
                slots_[find(slot.request)] = slot;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace

std::map<RequestId, RequestTimeline>
buildRequestTimelines(const TraceLog &events)
{
    std::map<RequestId, RequestTimeline> timelines;
    OpenSpans spans;

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
        SpanState closed;
        if (spans.advance(ev, closed).close) {
            tl.spans.push_back(
                {closed.phase, closed.replica, closed.since, ev.time});
        }
    }

    // A truncated stream (tests, partial exports) can leave spans
    // open; close them at the stream's final timestamp.
    const SimTime last = events.empty() ? SimTime{} : events.back().time;
    for (const auto &[request, st] : spans.sortedOpen()) {
        timelines[RequestId{request}].spans.push_back(
            {st.phase, st.replica, st.since, last});
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
writePerfettoJson(const TraceLog &events, std::ostream &out)
{
    RowWriter row(out);
    row << "{\"traceEvents\":[\n";
    PerfettoEvents json(row);

    // Track metadata: pid 0 is the cluster front door; each replica
    // is a process whose tid 0 is the engine track. Replica pids are
    // emitted in sorted order — deterministic output.
    std::vector<char> seen;
    for (const TraceEvent &ev : events) {
        if (ev.replica < 0)
            continue;
        const auto r = static_cast<std::size_t>(ev.replica);
        if (r >= seen.size())
            seen.resize(r + 1, 0);
        seen[r] = 1;
    }
    json.line() << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
                   "\"tid\":0,\"args\":{\"name\":\"cluster\"}}";
    for (int r = 0; r < static_cast<int>(seen.size()); ++r) {
        if (!seen[static_cast<std::size_t>(r)])
            continue;
        json.line() << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
                    << pidOf(r)
                    << ",\"tid\":0,\"args\":{\"name\":\"replica " << r
                    << "\"}}";
        json.line() << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
                    << pidOf(r)
                    << ",\"tid\":0,\"args\":{\"name\":\"engine\"}}";
    }

    OpenSpans spans;
    // Whether each engine track (indexed by pid) has an open
    // iteration.
    std::vector<char> engineOpen(seen.size() + 1, 0);

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
            engineOpen[static_cast<std::size_t>(pid)] = 1;
            break;
          case TraceEventKind::IterEnd:
            if (engineOpen[static_cast<std::size_t>(pid)]) {
                json.spanEnd(ev.time, pid, 0);
                engineOpen[static_cast<std::size_t>(pid)] = 0;
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
            SpanState closed;
            Transition tr = spans.advance(ev, closed);
            if (tr.close)
                json.spanEnd(ev.time, pidOf(closed.replica), tid);
            if (tr.openNew) {
                json.spanBegin(tracePhaseName(tr.phase), ev.time,
                               pidOf(tr.replica), tid);
                if (ev.kind == TraceEventKind::ChunkStart)
                    json.arg("tokens", ev.arg);
                json.close();
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
    // balance: request spans in id order, then engines in pid order.
    const SimTime last = events.empty() ? SimTime{} : events.back().time;
    for (const auto &[request, st] : spans.sortedOpen())
        json.spanEnd(last, pidOf(st.replica), requestTid(request));
    for (std::size_t pid = 0; pid < engineOpen.size(); ++pid) {
        if (engineOpen[pid])
            json.spanEnd(last, static_cast<int>(pid), 0);
    }

    row << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
writePerfettoJsonFile(const TraceLog &events, const std::string &path)
{
    writeArtefactFile(path, "trace", [&](std::ostream &out) {
        writePerfettoJson(events, out);
    });
}

} // namespace qoserve
