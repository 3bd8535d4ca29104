/**
 * @file
 * Prefill-decode disaggregated serving end to end.
 *
 * Runs the full disaggregated pipeline (§4.1.3): a prefill pool
 * scheduled by QoServe feeds a decode pool over a modeled KV-transfer
 * link. Two decode-pool policies are compared on a workload mixing a
 * 50 ms-TBT and a 100 ms-TBT interactive class:
 *
 *  - the paper's configuration (batch capped for the strictest TBT);
 *  - the paper's stated future work, implemented here: deadline-aware
 *    decode batching that serves relaxed-TBT requests at lower
 *    frequency instead of letting them constrain the tight class.
 *
 * Run: build/examples/disaggregated_serving
 */

#include <cstdio>

#include "app/qoserve.hh"

namespace {

using namespace qoserve;

void
report(const char *label, const MetricsCollector &metrics,
       double kv_bytes)
{
    RunSummary s = summarize(metrics);
    std::int64_t tbt_misses = 0;
    for (const auto &rec : metrics.records())
        tbt_misses += rec.tbtDeadlineMisses;

    std::printf("\n%s\n", label);
    std::printf("  violations (TTFT): %.2f%%, with TBT: %.2f%%\n",
                100.0 * s.violationRate,
                100.0 * s.violationRateWithTbt);
    std::printf("  total late tokens: %lld\n",
                static_cast<long long>(tbt_misses));
    for (const TierSummary &tier : s.tiers) {
        std::printf("  tier %d: p99 TTFT %.2f s, TBT-miss requests "
                    "%.1f%%\n",
                    tier.tierId, tier.p99Ttft,
                    100.0 * tier.tbtMissRate);
    }
    std::printf("  KV moved between pools: %.1f GB\n", kv_bytes / 1e9);
}

} // namespace

int
main()
{
    using namespace qoserve;

    TierTable tiers = {
        interactiveTier(0, "chat-50ms", 6.0, fromMillis(50.0)),
        interactiveTier(1, "agent-100ms", 6.0, fromMillis(100.0)),
    };
    // ShareGPT-style long decodes keep the decode pool busy.
    Trace trace = TraceBuilder()
                      .dataset(sharegpt())
                      .tiers(tiers)
                      .seed(8)
                      .build(PoissonArrivals(4.0), 600.0);
    std::printf("workload: %zu requests, two interactive classes "
                "(50 ms / 100 ms TBT)\n",
                trace.requests.size());

    ServingConfig sc;
    sc.policy = Policy::QoServe;
    auto predictor = makePredictor(sc);

    for (DecodePolicy policy :
         {DecodePolicy::StrictestTbtCap, DecodePolicy::DeadlineAware}) {
        DisaggCluster::Config cfg;
        cfg.replica.hw = llama3_8b_a100_tp1();
        cfg.numPrefillReplicas = 3;
        cfg.numDecodeReplicas = 1;
        cfg.prefillFactory = makeSchedulerFactory(sc);
        cfg.predictor = predictor.get();
        cfg.decodePolicy = policy;

        DisaggCluster sim(cfg, trace);
        const MetricsCollector &metrics = sim.run();
        report(policy == DecodePolicy::StrictestTbtCap
                   ? "decode pool: strictest-TBT batch cap (paper)"
                   : "decode pool: deadline-aware batching (future "
                     "work, implemented)",
               metrics, sim.kvBytesTransferred());
    }

    std::printf("\nTakeaway: deadline-aware decode batching lets the "
                "relaxed class trade token pacing\nit does not need "
                "for decode-pool capacity the tight class does.\n");
    return 0;
}
