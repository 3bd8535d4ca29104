/**
 * @file
 * Quickstart: serve a mixed-QoS workload with QoServe in ~30 lines.
 *
 * Builds a synthetic Azure-Code-like workload with the paper's three
 * QoS tiers (interactive chat, relaxed summarization, batch
 * processing), serves it on one simulated Llama3-8B/A100 replica
 * with the QoServe scheduler, and prints per-tier latency and SLO
 * attainment.
 *
 * Run: build/examples/quickstart
 */

#include <cstdio>

#include "app/qoserve.hh"

int
main()
{
    using namespace qoserve;

    // 1. Describe the deployment: one Llama3-8B replica on an A100,
    //    scheduled by QoServe (dynamic chunking + hybrid priority +
    //    eager relegation).
    Scenario sc;
    sc.serving.policy = Policy::QoServe;
    sc.serving.hw = llama3_8b_a100_tp1();
    sc.serving.numReplicas = 1;

    // 2. Build a workload: Az-Code token lengths, Poisson arrivals
    //    at 3 QPS, requests split equally across the paper's three
    //    QoS tiers (Table 3).
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .tiers(paperTierTable())
                      .seed(1)
                      .build(PoissonArrivals(3.0), /*duration=*/600.0);

    std::printf("serving %zu requests at 3 QPS on %s...\n",
                trace.requests.size(), sc.serving.hw.gpu.name.c_str());

    // 3. Serve and inspect. runScenario() trains the predictor,
    //    builds the cluster, runs the trace and summarizes it.
    RunSummary summary = runScenario(sc, trace).summary;

    std::printf("\n%-6s %-8s %12s %12s %12s\n", "tier", "count",
                "p50 (s)", "p99 (s)", "violations");
    for (const TierSummary &tier : summary.tiers) {
        const QosTier &def = trace.tiers[tier.tierId];
        std::printf("%-6s %-8zu %12.3f %12.3f %11.2f%%\n",
                    def.name.c_str(), tier.count,
                    def.interactive ? tier.p50Ttft : tier.p50Ttlt,
                    def.interactive ? tier.p99Ttft : tier.p99Ttlt,
                    100.0 * tier.violationRate);
    }
    std::printf("\noverall: %.2f%% SLO violations, %.2f%% relegated\n",
                100.0 * summary.violationRate,
                100.0 * summary.relegatedFraction);
    return 0;
}
