/**
 * @file
 * Goodput and capacity search harnesses.
 *
 * Implements the paper's goodput metric (§4.1.2): the maximum request
 * rate a replica sustains "while meeting the latency targets (p99)"
 * with "at most 1% of total requests" violating their deadlines. The
 * search brackets the feasible QPS by doubling, then narrows the
 * bracket by evaluating a QPS grid inside it each round until the
 * requested resolution is reached. Grid points within a round are
 * independent simulations, so they fan out across GoodputSearch::jobs
 * worker threads; the search result is a function of the search
 * configuration only, never of the job count.
 */

#ifndef QOSERVE_CLUSTER_CAPACITY_HH
#define QOSERVE_CLUSTER_CAPACITY_HH

#include <functional>

#include "metrics/slo_report.hh"

namespace qoserve {

/** Pass/fail criteria for one load point. */
struct GoodputCriteria
{
    /** Maximum tolerated SLO violation fraction (paper: 1%). */
    static constexpr double kMaxViolationRate = 0.01;

    /**
     * Count TBT SLO misses as violations too. Off by default
     * (matching the paper's headline metric); the PolyServe
     * comparison (§4.5.2) turns it on because its classes differ
     * only in TBT.
     */
    bool includeTbt = false;
};

/** Search controls. */
struct GoodputSearch
{
    /** Initial QPS probe. */
    double startQps = 0.5;

    /** Upper bound on the bracketing phase. */
    double maxQps = 64.0;

    /** Terminate when the bracket is this tight. */
    double resolutionQps = 0.125;

    /**
     * Interior grid points evaluated per refinement round. Part of
     * the search geometry: it changes which QPS points are probed
     * (and thus can move the result within one resolution step), so
     * it is fixed independently of the job count. Larger fans expose
     * more parallelism per round at the cost of extra probes when
     * running serially.
     */
    static constexpr int kGridFan = 4;

    /**
     * Worker threads evaluating grid points (0 = hardware
     * concurrency). Any value returns bit-identical results; jobs = 1
     * evaluates the grid serially with early exit.
     */
    int jobs = 1;
};

/** Evaluate a load point: run a simulation and summarize it. */
using LoadRunner = std::function<RunSummary(double qps)>;

/** True if a summary satisfies the criteria. */
bool meetsGoodputCriteria(const RunSummary &summary,
                          const GoodputCriteria &criteria);

/**
 * Maximum sustainable QPS under the criteria.
 *
 * @param runner Executes one simulation at a given QPS.
 * @param criteria Pass/fail rule per load point.
 * @param search Bracketing and resolution controls.
 * @return Highest passing QPS found (0 when even startQps fails).
 */
double measureMaxGoodput(const LoadRunner &runner,
                         const GoodputCriteria &criteria = {},
                         const GoodputSearch &search = {});

/**
 * Replicas needed to serve @p total_qps given a per-replica goodput.
 */
int replicasForLoad(double total_qps, double per_replica_goodput);

} // namespace qoserve

#endif // QOSERVE_CLUSTER_CAPACITY_HH
