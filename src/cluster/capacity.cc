/**
 * @file
 * Goodput search implementation.
 *
 * The search runs in two phases. Bracketing doubles the QPS until a
 * load point fails (or the cap is hit). Refinement then repeatedly
 * subdivides the bracket into GoodputSearch::kGridFan sub-intervals
 * and evaluates the interior grid points; the first failing point
 * (all grid points being independent simulations) tightens the
 * bracket for the next round. Grid points of one round fan out
 * across GoodputSearch::jobs threads; because the probed grid is a
 * function of the bracket geometry alone, the returned goodput is
 * bit-identical for every job count — jobs = 1 simply evaluates the
 * same grid serially and stops early at the first failure.
 */

#include "cluster/capacity.hh"

#include <cmath>
#include <vector>

#include "simcore/logging.hh"
#include "simcore/thread_pool.hh"

namespace qoserve {

bool
meetsGoodputCriteria(const RunSummary &summary,
                     const GoodputCriteria &criteria)
{
    double rate = criteria.includeTbt ? summary.violationRateWithTbt
                                      : summary.violationRate;
    return rate <= GoodputCriteria::kMaxViolationRate;
}

namespace {

/**
 * Index of the first point in @p points that fails the criteria, or
 * points.size() when all pass. With jobs > 1 every point is
 * evaluated concurrently (speculation past the first failure is
 * wasted work, not a behavior change); with jobs = 1 the scan stops
 * at the first failure.
 */
std::size_t
firstFailing(const std::vector<double> &points, int jobs,
             const LoadRunner &runner, const GoodputCriteria &criteria)
{
    auto passes = [&](double qps) {
        return meetsGoodputCriteria(runner(qps), criteria);
    };

    if (jobs <= 1 || points.size() <= 1) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!passes(points[i]))
                return i;
        }
        return points.size();
    }

    std::vector<char> ok = par::parallelMap(
        jobs, points.size(),
        [&](std::size_t i) -> char { return passes(points[i]); });
    for (std::size_t i = 0; i < ok.size(); ++i) {
        if (!ok[i])
            return i;
    }
    return ok.size();
}

} // namespace

double
measureMaxGoodput(const LoadRunner &runner,
                  const GoodputCriteria &criteria,
                  const GoodputSearch &search)
{
    QOSERVE_ASSERT(search.startQps > 0.0 && search.resolutionQps > 0.0,
                   "bad goodput search bounds");
    int jobs = par::resolveJobs(search.jobs);

    // Bracket: the doubling ladder start * 2^i, capped at maxQps.
    std::vector<double> ladder;
    for (double q = search.startQps; q <= search.maxQps; q *= 2.0)
        ladder.push_back(q);
    if (ladder.empty())
        return 0.0; // startQps already beyond the cap.

    // Evaluate the ladder in ascending waves so a parallel run never
    // probes far past the first failure (high-QPS probes are the
    // most expensive simulations). The bracket depends only on the
    // first failing ladder point, so wave partitioning cannot change
    // the result.
    double lo = 0.0;
    std::size_t failed = ladder.size();
    std::size_t wave = static_cast<std::size_t>(jobs);
    for (std::size_t off = 0; off < ladder.size() && failed == ladder.size();
         off += wave) {
        std::size_t end = std::min(off + wave, ladder.size());
        std::vector<double> points(ladder.begin() + off,
                                   ladder.begin() + end);
        std::size_t idx = firstFailing(points, jobs, runner, criteria);
        if (idx < points.size())
            failed = off + idx;
        else
            lo = points.back();
    }
    if (failed == 0)
        return 0.0; // Even the initial probe failed.
    if (failed == ladder.size())
        return lo; // Passed everything up to the cap.
    lo = ladder[failed - 1];
    double hi = ladder[failed];

    // Refine: subdivide the bracket into kGridFan sub-intervals (never
    // finer than the resolution) and evaluate the interior points as
    // one parallel grid; the first failure picks the next bracket.
    while (hi - lo > search.resolutionQps) {
        double spacing = (hi - lo) / GoodputSearch::kGridFan;
        if (spacing < search.resolutionQps)
            spacing = search.resolutionQps;

        std::vector<double> points;
        for (int i = 1;; ++i) {
            double q = lo + spacing * i;
            if (q >= hi - 1e-12 * hi)
                break;
            points.push_back(q);
        }
        if (points.empty())
            break; // Bracket already at the resolution.

        std::size_t idx = firstFailing(points, jobs, runner, criteria);
        if (idx == points.size()) {
            lo = points.back();
        } else {
            hi = points[idx];
            if (idx > 0)
                lo = points[idx - 1];
        }
    }
    return lo;
}

int
replicasForLoad(double total_qps, double per_replica_goodput)
{
    QOSERVE_ASSERT(per_replica_goodput > 0.0,
                   "per-replica goodput must be positive");
    return static_cast<int>(std::ceil(total_qps / per_replica_goodput));
}

} // namespace qoserve
