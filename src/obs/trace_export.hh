/**
 * @file
 * Trace exporters: per-request phase timelines and Perfetto JSON.
 *
 * Both consumers of a trace stream — the Chrome/Perfetto exporter and
 * the SLO-violation explainer — need the same reconstruction: fold
 * the flat event stream into, per request, a gap-free sequence of
 * phase spans (queued, prefill-running, prefill-starved,
 * stalled-by-preemption, decode, retry). Each request has at most one
 * open span at any time and every transition closes the previous span
 * at the instant it opens the next, so the spans partition the
 * request's served lifetime exactly — the ≥95% attribution guarantee
 * of the explainer is structural, not statistical.
 */

#ifndef QOSERVE_OBS_TRACE_EXPORT_HH
#define QOSERVE_OBS_TRACE_EXPORT_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/units.hh"
#include "obs/trace_sink.hh"

namespace qoserve {

/** Phase a request can spend wall-clock time in. */
enum class TracePhase : std::uint8_t
{
    Queued,    ///< Dispatched, waiting for its first/next chunk.
    Prefill,   ///< A prefill chunk is executing.
    Starved,   ///< Partially prefilled, waiting between chunks.
    Preempted, ///< Evicted by a KV preemption, awaiting recompute.
    Decode,    ///< Emitting tokens.
    Retry,     ///< Lost to a crash, in retry backoff.
};

/** Number of phases (array bound for per-phase accumulators). */
inline constexpr int kTracePhases =
    static_cast<int>(TracePhase::Retry) + 1;

/** Stable display name of a phase (explainer rows, Perfetto spans). */
const char *tracePhaseName(TracePhase phase);

/** One contiguous interval a request spent in one phase. */
struct PhaseSpan
{
    TracePhase phase = TracePhase::Queued;

    /** Replica the span ran on (-1 for cluster-level retry spans). */
    int replica = -1;

    SimTime begin;
    SimTime end;

    SimDuration length() const { return end - begin; }
};

/** A request's reconstructed lifecycle. */
struct RequestTimeline
{
    /** Phase spans in time order, gap-free from the first dispatch. */
    std::vector<PhaseSpan> spans;

    SimTime arrival = kTimeNever;
    SimTime finish = kTimeNever;

    /** Rejected by admission control (no spans). */
    bool rejected = false;

    /** Abandoned after exhausting its retry budget. */
    bool abandoned = false;

    /** Abandoned because its completion deadline became provably
     *  unreachable (deadline-aware cancellation). */
    bool cancelled = false;

    /** Shed unserved by the brownout controller. */
    bool shed = false;

    /** Crash-failure count (RequestFailed events). */
    int failures = 0;

    /** Prefix-cache tokens attached across dispatches. */
    std::int64_t cachedTokens = 0;

    /** End of the last span (finish, abandonment, or stream end). */
    SimTime lastSpanEnd() const;
};

/**
 * Fold a trace stream into per-request timelines, keyed by request
 * id (deterministic id order).
 */
std::map<RequestId, RequestTimeline>
buildRequestTimelines(const TraceLog &events);

/**
 * Write the stream as Chrome/Perfetto `trace_event` JSON.
 *
 * Track layout: pid 0 is the cluster front door, pid r+1 is replica
 * r. On a replica pid, tid 0 is the engine track (one B/E span per
 * iteration) and tid id+1 is request id's track (B/E spans named
 * after the phase). Timestamps are microseconds with fixed 3-decimal
 * formatting, so output bytes are platform- and jobs-invariant.
 * Every B is closed by a matching E (crash aborts close in-flight
 * spans; stream end closes stragglers), so the JSON always loads.
 */
void writePerfettoJson(const TraceLog &events, std::ostream &out);

/** Write Perfetto JSON to a file (fatal on error). */
void writePerfettoJsonFile(const TraceLog &events, const std::string &path);

} // namespace qoserve

#endif // QOSERVE_OBS_TRACE_EXPORT_HH
