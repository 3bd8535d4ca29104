/**
 * @file
 * Critical-path extraction, aggregation, and CSV round trip.
 */

#include "obs/critical_path.hh"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <ostream>

#include "core/csv.hh"

namespace qoserve {

namespace {

const char *const kCriticalCsvHeader =
    "phase,replica,seconds,dominant_requests";

int
phaseByName(const CsvReader &csv)
{
    for (int p = 0; p < kTracePhases; ++p)
        if (csv.field(0) == tracePhaseName(static_cast<TracePhase>(p)))
            return p;
    csv.fail("unknown phase: '", csv.field(0), "'");
}

} // namespace

CriticalSegment
CriticalPath::dominant() const
{
    CriticalSegment best;
    for (const CriticalSegment &seg : segments)
        if (seg.seconds > best.seconds)
            best = seg;
    return best;
}

CriticalPath
criticalPathFor(const RequestTimeline &tl)
{
    CriticalPath path;
    if (tl.spans.empty())
        return path;

    // Longest-duration chain of non-overlapping spans. Spans arrive
    // begin-ordered from buildRequestTimelines; dp[i] is the best
    // chain ending in span i. O(n^2) in the span count, which is
    // bounded by the request's chunk/iteration count.
    const std::size_t n = tl.spans.size();
    std::vector<double> dp(n, 0.0);
    std::vector<std::ptrdiff_t> prev(n, -1);
    std::size_t bestEnd = 0;
    for (std::size_t i = 0; i < n; ++i) {
        dp[i] = tl.spans[i].length();
        for (std::size_t j = 0; j < i; ++j) {
            if (tl.spans[j].end > tl.spans[i].begin)
                continue; // Overlaps: j cannot precede i on a chain.
            double cand = dp[j] + tl.spans[i].length();
            // Strict improvement only: ties keep the earliest
            // predecessor, so the path is deterministic.
            if (cand > dp[i]) {
                dp[i] = cand;
                prev[i] = static_cast<std::ptrdiff_t>(j);
            }
        }
        if (dp[i] > dp[bestEnd])
            bestEnd = i;
    }

    std::vector<const PhaseSpan *> chain;
    for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(bestEnd);
         i >= 0; i = prev[static_cast<std::size_t>(i)])
        chain.push_back(&tl.spans[static_cast<std::size_t>(i)]);
    std::reverse(chain.begin(), chain.end());

    for (const PhaseSpan *span : chain) {
        const double len = span->length();
        if (len <= 0.0)
            continue;
        if (!path.segments.empty() &&
            path.segments.back().phase == span->phase &&
            path.segments.back().replica == span->replica) {
            path.segments.back().seconds += len;
        } else {
            path.segments.push_back({span->phase, span->replica, len});
        }
        path.totalSeconds += len;
    }
    return path;
}

CriticalAggregate
aggregateCriticalPaths(
    const std::map<RequestId, RequestTimeline> &timelines,
    const std::vector<std::uint64_t> &ids)
{
    CriticalAggregate agg;
    for (std::uint64_t id : ids) {
        auto it = timelines.find(RequestId{id});
        if (it == timelines.end() || it->second.spans.empty())
            continue;
        CriticalPath path = criticalPathFor(it->second);
        if (path.segments.empty())
            continue;
        ++agg.requests;
        agg.totalSeconds += path.totalSeconds;
        for (const CriticalSegment &seg : path.segments)
            agg.cells[{static_cast<int>(seg.phase), seg.replica}]
                .seconds += seg.seconds;
        CriticalSegment dom = path.dominant();
        ++agg.cells[{static_cast<int>(dom.phase), dom.replica}]
              .dominantRequests;
    }
    return agg;
}

void
writeCriticalPathReport(const CriticalAggregate &agg, std::ostream &out)
{
    if (agg.requests == 0) {
        out << "no served violated requests — no critical paths to "
               "aggregate\n";
        return;
    }
    out << "critical paths across " << agg.requests
        << " served violated request(s), " << agg.totalSeconds
        << " s of path time:\n";

    // Rank by dominance: the cells that *led* the most misses first,
    // seconds as the tiebreak, map order as the final tie.
    std::vector<std::pair<std::pair<int, int>,
                          CriticalAggregate::Entry>>
        ranked(agg.cells.begin(), agg.cells.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.dominantRequests !=
                      b.second.dominantRequests)
                      return a.second.dominantRequests >
                             b.second.dominantRequests;
                  if (a.second.seconds != b.second.seconds)
                      return a.second.seconds > b.second.seconds;
                  return a.first < b.first;
              });
    for (const auto &[key, entry] : ranked) {
        const auto phase = static_cast<TracePhase>(key.first);
        const double domPct = 100.0 *
                              static_cast<double>(
                                  entry.dominantRequests) /
                              static_cast<double>(agg.requests);
        const double secPct =
            agg.totalSeconds > 0.0
                ? 100.0 * entry.seconds / agg.totalSeconds
                : 0.0;
        out << "  " << std::left << std::setw(12)
            << tracePhaseName(phase) << std::right;
        if (key.second >= 0)
            out << " replica " << std::setw(3) << key.second;
        else
            out << " cluster    ";
        out << "  dominates " << std::setw(5) << domPct
            << "% of misses  (" << secPct << "% of path time)\n";
    }
}

void
writeCriticalAggregateCsv(const CriticalAggregate &agg,
                          std::ostream &out)
{
    RowWriter row(out, 17);
    row << kCriticalCsvHeader << '\n';
    row << "total,-1," << agg.totalSeconds << ',' << agg.requests << '\n';
    for (const auto &[key, entry] : agg.cells) {
        row << tracePhaseName(static_cast<TracePhase>(key.first)) << ','
            << key.second << ',' << entry.seconds << ','
            << entry.dominantRequests << '\n';
    }
}

void
writeCriticalAggregateCsvFile(const CriticalAggregate &agg,
                              const std::string &path)
{
    writeArtefactFile(path, "critical-path", [&](std::ostream &out) {
        writeCriticalAggregateCsv(agg, out);
    });
}

CriticalAggregate
readCriticalAggregateCsv(std::istream &in)
{
    CriticalAggregate agg;
    bool saw_total = false;
    CsvReader csv(in, "critical-path", kCriticalCsvHeader);
    while (csv.next()) {
        if (csv.field(0) == "total") {
            if (saw_total)
                csv.fail("duplicate total row");
            saw_total = true;
            agg.totalSeconds = csv.number<double>(2);
            agg.requests = csv.number<std::uint64_t>(3);
            continue;
        }
        int phase = phaseByName(csv);
        int replica = csv.number<int>(1);
        CriticalAggregate::Entry entry;
        entry.seconds = csv.number<double>(2);
        entry.dominantRequests = csv.number<std::uint64_t>(3);
        if (!agg.cells.emplace(std::make_pair(phase, replica), entry)
                 .second)
            csv.fail("duplicate cell");
    }
    if (!saw_total)
        csv.fail("no total row");
    return agg;
}

CriticalAggregate
readCriticalAggregateCsvFile(const std::string &path)
{
    return readArtefactFile(path, "critical-path",
                            readCriticalAggregateCsv);
}

} // namespace qoserve
