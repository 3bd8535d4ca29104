/**
 * @file
 * SLO-violation explainer implementation.
 */

#include "obs/explain.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "obs/critical_path.hh"
#include "simcore/logging.hh"

namespace qoserve {

double
PhaseBreakdown::coverage() const
{
    if (endToEnd <= 0.0)
        return 1.0;
    double attributed = 0.0;
    for (double s : seconds)
        attributed += s;
    return attributed / endToEnd;
}

PhaseBreakdown
breakdownFor(const RequestTimeline &tl, SimTime arrival)
{
    PhaseBreakdown bd;
    if (tl.spans.empty())
        return bd;
    bd.served = true;

    SimTime start = arrival != kTimeNever ? arrival : tl.arrival;
    if (start == kTimeNever)
        start = tl.spans.front().begin;
    SimTime end =
        tl.finish != kTimeNever ? tl.finish : tl.lastSpanEnd();

    bd.endToEnd = std::max(0.0, end - start);
    double attributed = 0.0;
    for (const PhaseSpan &span : tl.spans) {
        // Clip to [start, end] — defensive; spans of a well-formed
        // stream already lie inside the request's lifetime.
        SimTime b = std::max(span.begin, start);
        SimTime e = std::min(span.end, end);
        if (e <= b)
            continue;
        bd.seconds[static_cast<int>(span.phase)] += e - b;
        attributed += e - b;
    }
    bd.residual = bd.endToEnd - attributed;
    return bd;
}

namespace {

void
printPhaseRow(std::ostream &out, const char *label, double seconds,
              double total)
{
    double pct = total > 0.0 ? 100.0 * seconds / total : 0.0;
    out << "  " << std::left << std::setw(22) << label << std::right
        << std::setw(10) << seconds << " s  " << std::setw(5) << pct
        << "%\n";
}

} // namespace

void
writeExplainReport(const TraceLog &events,
                   const std::vector<ExplainRecord> &records,
                   std::ostream &out, std::size_t top_n)
{
    auto timelines = buildRequestTimelines(events);

    std::vector<ExplainRecord> sorted = records;
    std::sort(sorted.begin(), sorted.end(),
              [](const ExplainRecord &a, const ExplainRecord &b) {
                  return a.id < b.id;
              });

    std::size_t violated = 0, rejected = 0, abandoned = 0;
    std::size_t shed = 0, cancelled = 0;
    for (const ExplainRecord &rec : sorted) {
        if (!rec.violated)
            continue;
        ++violated;
        auto it = timelines.find(RequestId{rec.id});
        if (rec.rejected) {
            ++rejected;
            if (it != timelines.end() && it->second.shed)
                ++shed;
        }
        if (rec.retryExhausted) {
            ++abandoned;
            if (it != timelines.end() && it->second.cancelled)
                ++cancelled;
        }
    }

    out << std::fixed << std::setprecision(3);
    out << "requests: " << sorted.size() << " total, " << violated
        << " violated (" << rejected << " rejected, " << abandoned
        << " abandoned)\n";
    // The records CSV folds brownout sheds into `rejected` and
    // deadline cancellations into `retryExhausted`; the trace stream
    // tells them apart, so break them out when present.
    if (shed > 0 || cancelled > 0) {
        out << "degradation: " << shed << " shed by brownout, "
            << cancelled << " cancelled as provably late\n";
    }

    double phaseTotals[kTracePhases] = {};
    double residualTotal = 0.0;
    double minCoverage = 1.0;
    std::size_t servedViolated = 0;

    struct Offender
    {
        std::uint64_t id;
        double endToEnd;
        TracePhase worst;
        double worstFrac;
    };
    std::vector<Offender> offenders;
    std::vector<std::uint64_t> servedViolatedIds;

    for (const ExplainRecord &rec : sorted) {
        if (!rec.violated)
            continue;
        out << "\nreq " << rec.id << "  tier " << rec.tierId
            << (rec.important ? "  important" : "");
        auto it = timelines.find(RequestId{rec.id});
        if (rec.rejected || it == timelines.end() ||
            it->second.spans.empty()) {
            if (it != timelines.end() && it->second.shed)
                out << "  shed by brownout (never served)\n";
            else if (it != timelines.end() && it->second.cancelled)
                out << "  cancelled as provably late (never served)\n";
            else
                out << "  rejected at admission (never served)\n";
            continue;
        }
        const RequestTimeline &tl = it->second;
        PhaseBreakdown bd = breakdownFor(tl, rec.arrival);
        ++servedViolated;
        servedViolatedIds.push_back(rec.id);
        minCoverage = std::min(minCoverage, bd.coverage());

        out << "  e2e " << bd.endToEnd << " s  ttft " << rec.ttft
            << " s";
        if (rec.retryExhausted && tl.cancelled)
            out << "  cancelled as provably late after " << rec.retries
                << " retries";
        else if (rec.retryExhausted)
            out << "  abandoned after " << rec.retries << " retries";
        else if (tl.failures > 0)
            out << "  survived " << tl.failures << " crash(es)";
        out << "\n";
        TracePhase worst = TracePhase::Queued;
        for (int p = 0; p < kTracePhases; ++p) {
            if (bd.seconds[p] >
                bd.seconds[static_cast<int>(worst)])
                worst = static_cast<TracePhase>(p);
            if (bd.seconds[p] > 0.0) {
                printPhaseRow(
                    out, tracePhaseName(static_cast<TracePhase>(p)),
                    bd.seconds[p], bd.endToEnd);
            }
            phaseTotals[p] += bd.seconds[p];
        }
        // Epsilon hides accumulated float error; a real routing gap
        // (milliseconds and up) still prints.
        if (bd.residual > 1e-9)
            printPhaseRow(out, "unattributed", bd.residual,
                          bd.endToEnd);
        residualTotal += bd.residual;

        double worstFrac =
            bd.endToEnd > 0.0
                ? bd.seconds[static_cast<int>(worst)] / bd.endToEnd
                : 0.0;
        offenders.push_back({rec.id, bd.endToEnd, worst, worstFrac});
    }

    if (servedViolated > 0) {
        double grand = residualTotal;
        for (double s : phaseTotals)
            grand += s;
        out << "\nphase totals across " << servedViolated
            << " served violated request(s):\n";
        for (int p = 0; p < kTracePhases; ++p) {
            if (phaseTotals[p] > 0.0) {
                printPhaseRow(
                    out, tracePhaseName(static_cast<TracePhase>(p)),
                    phaseTotals[p], grand);
            }
        }
        if (residualTotal > 1e-9)
            printPhaseRow(out, "unattributed", residualTotal, grand);

        std::sort(offenders.begin(), offenders.end(),
                  [](const Offender &a, const Offender &b) {
                      if (a.endToEnd != b.endToEnd)
                          return a.endToEnd > b.endToEnd;
                      return a.id < b.id;
                  });
        out << "\ntop offenders by end-to-end latency:\n";
        std::size_t n = std::min(top_n, offenders.size());
        for (std::size_t i = 0; i < n; ++i) {
            const Offender &o = offenders[i];
            out << "  " << (i + 1) << ". req " << o.id << "  "
                << o.endToEnd << " s  dominant phase "
                << tracePhaseName(o.worst) << " ("
                << 100.0 * o.worstFrac << "%)\n";
        }
        CriticalAggregate agg =
            aggregateCriticalPaths(timelines, servedViolatedIds);
        out << "\n";
        writeCriticalPathReport(agg, out);

        out << "\nattribution: min coverage "
            << 100.0 * minCoverage
            << "% of end-to-end latency across served violated "
               "requests\n";
    } else if (violated > 0) {
        out << "\nevery violated request was rejected before "
               "service; no phases to attribute\n";
    } else {
        out << "\nno SLO violations — nothing to explain\n";
    }
}

} // namespace qoserve
