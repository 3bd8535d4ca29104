/**
 * @file
 * Figure 12: transient overload with a diurnal load pattern.
 *
 * Load alternates between 2 and 5 QPS every 15 minutes; 20% of
 * requests in each tier are hinted low-priority. Prints the overall
 * and per-tier deadline violations plus the violations among
 * Important (high-priority) requests for Sarathi-FCFS, Sarathi-EDF
 * and QoServe — the paper's Fig. 12 table. Expected shape: the
 * baselines collapse (~80%+ violations across the board) while
 * QoServe misses no important requests and only a few percent
 * overall, via hint-driven eager relegation.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

Trace
diurnalTrace()
{
    // Scaled-down diurnal pattern: 2 <-> 5 QPS, 5-minute phases,
    // ~40 minutes total (the paper runs 15-minute phases for 4 h).
    DiurnalArrivals arrivals(2.0, 5.0, 300.0);
    return TraceBuilder()
        .dataset(azureCode())
        .seed(29)
        .lowPriorityFraction(0.2)
        .build(arrivals, 2400.0);
}

void
run()
{
    bench::printBanner("Transient overload with priority hints",
                       "Figure 12 (diurnal QPS and violation table)");

    Trace trace = diurnalTrace();
    std::printf("workload: %zu requests, diurnal 2<->5 QPS every 300 s "
                "over 2400 s, 20%% low-priority\n\n",
                trace.requests.size());

    std::printf("%-14s %9s %11s %8s %8s %8s\n", "scheme", "overall",
                "important", "QoS 1", "QoS 2", "QoS 3");
    std::printf("%-14s %9s %11s %8s %8s %8s\n", "", "(%)", "(%)", "(%)",
                "(%)", "(%)");
    bench::printRule(64);

    for (Policy policy :
         {Policy::SarathiFcfs, Policy::SarathiEdf, Policy::QoServe}) {
        Scenario sc;
        sc.serving.policy = policy;
        RunSummary s = bench::simulate(sc, trace).summary;

        double tier_viol[3] = {0, 0, 0};
        for (const auto &ts : s.tiers)
            tier_viol[ts.tierId] = 100.0 * ts.violationRate;

        std::printf("%-14s %9.2f %11.2f %8.2f %8.2f %8.2f\n",
                    policyName(policy), 100.0 * s.violationRate,
                    100.0 * s.importantViolationRate, tier_viol[0],
                    tier_viol[1], tier_viol[2]);
    }

    std::printf("\nPaper reference (4 h run): FCFS 81.9%% overall / "
                "82.0%% important; EDF 84.1%% / 84.1%%;\nQoServe 8.6%% "
                "overall with 0%% important violations.\n");
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
