/**
 * @file
 * Table 6 and §4.4.2: robustness to workload composition and SLOs.
 *
 * Part 1 (Table 6): skewed tier mixes 70-15-15 (interactive-heavy)
 * and 15-15-70 (batch-heavy) at 4.5 QPS; per-tier median latency and
 * overall violations for Sarathi-FCFS, Sarathi-EDF and QoServe.
 * Expected shape: baselines collapse on both mixes, QoServe stays
 * within SLO on all tiers with sub-5% violations.
 *
 * Part 2 (Varying SLO): the stricter tier table (3 s, 6 s, 1000 s)
 * on Az-Conv; goodput of QoServe vs Sarathi-EDF. Paper: 5.0 vs 3.7
 * QPS (~26% less for EDF).
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

void
runMix(const std::vector<double> &mix, const char *label, double qps)
{
    std::printf("\nComposition: %s at %.1f QPS\n", label, qps);
    std::printf("%-14s %14s %14s %14s %12s\n", "scheme", "Q1 med (6s)",
                "Q2 med (600s)", "Q3 med (1800s)", "violations");
    bench::printRule(74);

    for (Policy policy :
         {Policy::SarathiFcfs, Policy::SarathiEdf, Policy::QoServe}) {
        Scenario sc;
        sc.serving.policy = policy;
        sc.tierMix = mix;
        sc.qps = qps;
        sc.duration = 1200.0;
        sc.seed = 43;
        RunSummary s = bench::runOnce(sc);

        double med[3] = {0, 0, 0};
        for (const auto &ts : s.tiers)
            med[ts.tierId] = ts.tierId == 0 ? ts.p50Ttft : ts.p50Ttlt;
        std::printf("%-14s %14.2f %14.2f %14.2f %11.2f%%\n",
                    policyName(policy), med[0], med[1], med[2],
                    100.0 * s.violationRate);
    }
}

void
runVaryingSlo()
{
    std::printf("\nVarying SLOs (Q1: 3s/50ms, Q2: 6s/50ms, Q3: 1000s "
                "TTLT) on Az-Conv\n");
    std::printf("%-14s %16s\n", "scheme", "goodput (QPS)");
    bench::printRule(32);

    double results[2] = {0, 0};
    const Policy policies[] = {Policy::SarathiEdf, Policy::QoServe};
    for (int p = 0; p < 2; ++p) {
        Scenario sc;
        sc.serving.policy = policies[p];
        sc.tiers = strictTierTable();
        sc.dataset = azureConv();
        sc.duration = 1200.0;
        sc.seed = 47;
        GoodputSearch search;
        search.resolutionQps = 0.125;
        results[p] = bench::goodput(sc, search);
        std::printf("%-14s %16.2f\n", policyName(policies[p]),
                    results[p]);
    }
    if (results[1] > 0.0) {
        std::printf("\nSarathi-EDF sustains %.0f%% less load than "
                    "QoServe (paper: 26%% less, 3.7 vs 5.0 QPS).\n",
                    100.0 * (1.0 - results[0] / results[1]));
    }
}

void
run()
{
    bench::printBanner("Workload composition and SLO robustness",
                       "Table 6 and Section 4.4.2");
    runMix({0.70, 0.15, 0.15}, "70-15-15 (interactive dominant)", 4.5);
    // The batch-dominant mix has higher absolute capacity in this
    // calibration; run it at the same relative overload as the paper.
    runMix({0.15, 0.15, 0.70}, "15-15-70 (batch dominant)", 7.0);
    runVaryingSlo();
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
