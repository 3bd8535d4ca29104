/**
 * @file
 * Figure 1: headline efficiency results.
 *
 * (top right) A100 GPUs needed to serve a fixed 35 QPS load of three
 * equal QoS tiers: the SOTA siloed deployment (per-tier Sarathi
 * silos, strict tier at chunk 256, relaxed tiers at chunk 2048) vs
 * QoServe co-scheduling on a shared cluster. Paper: 13 vs 10 GPUs
 * (23% saving).
 *
 * (bottom) Bursty overload: a diurnal 2<->5 QPS pattern; prints the
 * tail-latency summary showing Sarathi succumbing to cascading
 * deadline violations while QoServe stays stable.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

void
capacityPart()
{
    std::printf("\n(top right) GPUs to serve 35 QPS across 3 equal "
                "QoS tiers\n\n");

    // Per-tier goodput of a dedicated Sarathi silo.
    auto silo_goodput = [&](int tier_id, int chunk) {
        Scenario sc;
        sc.serving.policy = Policy::SarathiFcfs;
        sc.serving.base.fixedChunkTokens = chunk;
        sc.tierMix = std::vector<double>(3, 0.0);
        sc.tierMix[tier_id] = 1.0;
        sc.duration = 1500.0;
        sc.seed = 51;
        GoodputSearch search;
        search.maxQps = 32.0;
        search.resolutionQps = 0.125;
        return bench::goodput(sc, search);
    };

    double q1 = silo_goodput(0, 256);
    double q2 = silo_goodput(1, 2048);
    double q3 = silo_goodput(2, 2048);

    const double per_tier_qps = 35.0 / 3.0;
    int silo_gpus = replicasForLoad(per_tier_qps, q1) +
                    replicasForLoad(per_tier_qps, q2) +
                    replicasForLoad(per_tier_qps, q3);

    Scenario shared;
    shared.serving.policy = Policy::QoServe;
    shared.duration = 1500.0;
    shared.seed = 51;
    GoodputSearch search;
    search.resolutionQps = 0.125;
    double shared_goodput = bench::goodput(shared, search);
    int qoserve_gpus = replicasForLoad(35.0, shared_goodput);

    std::printf("per-tier silo goodput: Q1 %.2f QPS (chunk 256), "
                "Q2 %.2f QPS, Q3 %.2f QPS (chunk 2048)\n",
                q1, q2, q3);
    std::printf("QoServe shared goodput per replica: %.2f QPS\n\n",
                shared_goodput);
    std::printf("%-22s %10s\n", "deployment", "A100 GPUs");
    bench::printRule(34);
    std::printf("%-22s %10d\n", "SOTA - Siloed", silo_gpus);
    std::printf("%-22s %10d\n", "QoServe", qoserve_gpus);
    std::printf("\nsaving: %.0f%% (paper: 23%%, 13 vs 10 GPUs)\n",
                100.0 * (1.0 - static_cast<double>(qoserve_gpus) /
                                   silo_gpus));
}

void
burstPart()
{
    std::printf("\n(bottom) Bursty overload: diurnal 2<->5 QPS on one "
                "replica\n\n");

    DiurnalArrivals arrivals(2.0, 5.0, 300.0);
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(53)
                      .build(arrivals, 2400.0);

    std::printf("%-14s %16s %16s %14s\n", "scheme", "p99 latency (s)",
                "max latency (s)", "violations");
    bench::printRule(64);
    for (Policy policy : {Policy::SarathiFcfs, Policy::QoServe}) {
        Scenario sc;
        sc.serving.policy = policy;
        ScenarioResult res = bench::simulate(sc, trace);
        const RunSummary &s = res.summary;

        double max_latency = 0.0;
        for (const auto &rec : res.cluster->metrics().records()) {
            max_latency = std::max(
                max_latency,
                headlineLatency(rec,
                                trace.tiers[rec.spec.tierId]));
        }
        std::printf("%-14s %16.2f %16.2f %13.2f%%\n",
                    policyName(policy), s.p99Latency, max_latency,
                    100.0 * s.violationRate);
    }
    std::printf("\nExpected shape: Sarathi cannot recover from the "
                "first burst (cascading violations);\nQoServe rides "
                "each burst and returns to baseline.\n");
}

void
run()
{
    bench::printBanner("Headline efficiency and overload resilience",
                       "Figure 1");
    capacityPart();
    burstPart();
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
