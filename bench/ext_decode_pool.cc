/**
 * @file
 * Extension study: multi-TBT decode pools in disaggregated serving.
 *
 * §4.1.3 holds the decode pool fixed ("Efficiently supporting
 * different TBT SLOs in the decode nodes is left to future work").
 * This bench implements and evaluates that future work: on a
 * two-class interactive workload (50 ms and 200 ms TBT), it compares
 * the paper's strictest-TBT batch cap against deadline-aware decode
 * batching, measuring TBT-inclusive SLO attainment as decode-pool
 * load rises. The deadline-aware pool sustains visibly higher load
 * per decode replica because the relaxed class stops being decoded
 * at 4x the frequency its SLO requires.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

RunSummary
runAt(double qps, DecodePolicy policy, const LatencyPredictor *predictor)
{
    TierTable tiers = {
        interactiveTier(0, "fast", 6.0, fromMillis(50.0)),
        interactiveTier(1, "slow", 6.0, fromMillis(200.0)),
    };
    Trace trace = TraceBuilder()
                      .dataset(sharegpt())
                      .tiers(tiers)
                      .seed(73)
                      .build(PoissonArrivals(qps), 600.0);

    ServingConfig sc;
    sc.policy = Policy::QoServe;

    DisaggCluster::Config cfg;
    cfg.replica.hw = llama3_8b_a100_tp1();
    cfg.numPrefillReplicas = 3;
    cfg.numDecodeReplicas = 1;
    cfg.prefillFactory = makeSchedulerFactory(sc);
    cfg.predictor = predictor;
    cfg.decodePolicy = policy;

    DisaggCluster sim(cfg, trace);
    return summarize(sim.run());
}

void
run()
{
    bench::printBanner(
        "Decode-pool policies for multiple TBT classes",
        "the future work of Section 4.1.3 (extension study)");

    const LatencyPredictor *predictor =
        bench::PredictorCache::instance().get(ServingConfig{});

    std::printf("two interactive classes (50 ms / 200 ms TBT), "
                "ShareGPT decode lengths,\n3 prefill + 1 decode "
                "replica; violations include TBT SLOs\n\n");
    std::printf("%-8s %26s %26s\n", "QPS", "strictest-TBT cap (paper)",
                "deadline-aware (extension)");
    bench::printRule(64);

    for (double qps : {3.0, 3.5, 3.75, 4.0, 4.25}) {
        RunSummary strict =
            runAt(qps, DecodePolicy::StrictestTbtCap, predictor);
        RunSummary aware =
            runAt(qps, DecodePolicy::DeadlineAware, predictor);
        std::printf("%-8.1f %25.2f%% %25.2f%%\n", qps,
                    100.0 * strict.violationRateWithTbt,
                    100.0 * aware.violationRateWithTbt);
    }

    std::printf("\nLower is better. The deadline-aware pool serves the "
                "200 ms class every ~4th\niteration, freeing decode "
                "capacity the strictest-TBT cap strands.\n");
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
