/**
 * @file
 * SLO-violation explainer: joins a lifecycle trace with per-request
 * records and attributes each violated request's end-to-end latency
 * to named phases (DESIGN.md §10).
 *
 * The attribution is exact by construction: phase spans tile a served
 * request's lifetime from first dispatch to completion (see
 * trace_export.hh), so the only unattributed residual is the gap
 * between arrival and first dispatch — zero in this simulator, where
 * routing is instantaneous. The acceptance bar (≥95% attributed) is
 * therefore met structurally; the report still computes and prints
 * the residual so a future routing delay shows up instead of hiding.
 */

#ifndef QOSERVE_OBS_EXPLAIN_HH
#define QOSERVE_OBS_EXPLAIN_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/trace_export.hh"

namespace qoserve {

/** The slice of a per-request record the explainer joins on. */
struct ExplainRecord
{
    std::uint64_t id = 0;
    SimTime arrival;
    int tierId = 0;
    bool important = false;
    double ttft = 0.0; ///< May be +inf (never served).
    double ttlt = 0.0; ///< May be +inf.
    bool violated = false;
    bool rejected = false;
    bool retryExhausted = false;
    int retries = 0;
};

/** Per-request latency attribution. */
struct PhaseBreakdown
{
    /** Seconds per phase, indexed by TracePhase. */
    double seconds[kTracePhases] = {};

    /** Arrival to completion (or abandonment), seconds. */
    double endToEnd = 0.0;

    /** endToEnd minus the attributed phase total. */
    double residual = 0.0;

    /** True when the timeline holds at least one span. */
    bool served = false;

    /** Attributed fraction of endToEnd (1.0 for a zero-length run). */
    double coverage() const;
};

/** Attribute @p tl's lifetime to phases. @p arrival overrides the
 *  timeline's own arrival stamp when finite (records are
 *  authoritative). */
PhaseBreakdown breakdownFor(const RequestTimeline &tl, SimTime arrival);

/**
 * Render the explainer report: a phase-by-phase breakdown for every
 * violated request (id order), phase totals across them, and the
 * top-@p top_n offenders by end-to-end latency.
 */
void writeExplainReport(const TraceLog &events,
                        const std::vector<ExplainRecord> &records,
                        std::ostream &out, std::size_t top_n = 10);

} // namespace qoserve

#endif // QOSERVE_OBS_EXPLAIN_HH
