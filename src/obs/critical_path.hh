/**
 * @file
 * Critical-path extraction over request span DAGs (DESIGN.md §14).
 *
 * A request's reconstructed timeline is a set of phase spans (see
 * trace_export.hh). Viewed as a DAG — spans are nodes, with an edge
 * wherever one span can only start after another ends — the critical
 * path is the maximum-duration chain of non-overlapping spans from
 * the request's first span to its last: the sequence of waits and
 * work that actually bounded its end-to-end latency. Every request
 * executes serially (possibly across replicas via retries), so the
 * DAG is a chain and the path covers the whole served lifetime; the
 * extraction is one linear pass that panics on overlapping spans.
 *
 * Consecutive path spans sharing (phase, replica) coalesce into one
 * segment, and the aggregate across violated requests answers the
 * question phase *totals* cannot: not "where did time go" but "which
 * single phase × replica dominated each miss" — e.g. "71% of p99
 * misses are prefill starvation on replica 3".
 */

#ifndef QOSERVE_OBS_CRITICAL_PATH_HH
#define QOSERVE_OBS_CRITICAL_PATH_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_export.hh"

namespace qoserve {

/** One coalesced stretch of a request's critical path. */
struct CriticalSegment
{
    TracePhase phase = TracePhase::Queued;
    int replica = -1;
    double seconds = 0.0;

    bool
    operator==(const CriticalSegment &o) const
    {
        return phase == o.phase && replica == o.replica &&
               seconds == o.seconds;
    }
};

/** A request's extracted critical path. */
struct CriticalPath
{
    /** Path segments in time order, consecutive (phase, replica)
     *  runs coalesced. Empty for never-served requests. */
    std::vector<CriticalSegment> segments;

    /** Sum of segment durations. */
    double totalSeconds = 0.0;

    /** The single longest segment (Queued/-1/0 when unserved). */
    CriticalSegment dominant() const;
};

/**
 * Extract @p tl's critical path: its spans in order, zero-length ones
 * dropped. Panics when a span begins before the previous one ends.
 */
CriticalPath criticalPathFor(const RequestTimeline &tl);

/**
 * Critical-path mass aggregated across a set of requests, keyed by
 * (phase, replica).
 */
struct CriticalAggregate
{
    struct Entry
    {
        double seconds = 0.0; ///< Critical-path seconds in this cell.
        std::uint64_t dominantRequests = 0; ///< Paths this cell led.
    };

    /** (phase index, replica) -> mass. Name-ordered map: iteration,
     *  reports and CSVs are deterministic. */
    std::map<std::pair<int, int>, Entry> cells;

    std::uint64_t requests = 0;  ///< Served requests aggregated.
    double totalSeconds = 0.0;   ///< Total critical-path seconds.
};

/**
 * Aggregate the critical paths of the timelines for @p ids (requests
 * with no timeline or no spans are skipped — they never ran).
 */
CriticalAggregate
aggregateCriticalPaths(const std::map<RequestId, RequestTimeline> &timelines,
                       const std::vector<std::uint64_t> &ids);

/**
 * Render the aggregate as report text: one line per cell, dominant
 * share first — the "p99 misses are 71% prefill-starvation on
 * replica 3" section of qoserve_explain.
 */
void writeCriticalPathReport(const CriticalAggregate &agg,
                             std::ostream &out);

/**
 * Write the aggregate as CSV: header
 * `phase,replica,seconds,dominant_requests`, one row per cell in map
 * order, preceded by a `total,-1,<seconds>,<requests>` row.
 * max_digits10, round-trip exact.
 */
void writeCriticalAggregateCsv(const CriticalAggregate &agg,
                               std::ostream &out);

/** Write the aggregate CSV to a file (fatal on error). */
void writeCriticalAggregateCsvFile(const CriticalAggregate &agg,
                                   const std::string &path);

/** Parse an aggregate CSV written by writeCriticalAggregateCsv.
 *  Fatal (with the 1-based line number) on malformed input. */
CriticalAggregate readCriticalAggregateCsv(std::istream &in);

/** Read an aggregate CSV from a file (fatal on error). */
CriticalAggregate readCriticalAggregateCsvFile(const std::string &path);

} // namespace qoserve

#endif // QOSERVE_OBS_CRITICAL_PATH_HH
