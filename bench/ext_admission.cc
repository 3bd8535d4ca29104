/**
 * @file
 * Extension study: overload management — rejection vs relegation.
 *
 * §2.2 criticizes production overload handling ("Rate Limiting ...
 * simply reject excess requests without considering their relative
 * importance"); §3.4's eager relegation is the proposed alternative.
 * This bench makes the contrast concrete on a 3x burst: Sarathi-FCFS
 * with no control, with a rate limiter sized to capacity, and with
 * backlog-based load shedding, against QoServe's relegation — which
 * completes every request while protecting important ones.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

struct Row
{
    const char *label;
    RunSummary summary;
};

void
run()
{
    bench::printBanner("Overload management: rejection vs relegation",
                       "the §2.2 / §3.4 contrast (extension study)");

    // 2 QPS baseline with a 6 QPS burst for 5 minutes; 30% of
    // traffic is low-priority (free tier).
    BurstArrivals arrivals(2.0, 6.0, SimTime{600.0}, SimTime{900.0});
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(97)
                      .lowPriorityFraction(0.3)
                      .build(arrivals, 1500.0);
    std::printf("workload: %zu requests, 2 QPS with a 3x burst during "
                "[600 s, 900 s), 30%% low-priority\n\n",
                trace.requests.size());

    auto run_case = [&](const char *label, Policy policy,
                        AdmissionController::Config admission) {
        ServingConfig sc;
        sc.policy = policy;

        ClusterSim::Config cc;
        cc.replica.hw = llama3_8b_a100_tp1();
        cc.admission = admission;
        cc.predictor = bench::PredictorCache::instance().get(sc);
        ClusterSim sim(cc, trace);
        sim.addReplicaGroup(1, makeSchedulerFactory(sc));
        return Row{label, summarize(sim.run())};
    };

    AdmissionController::Config none;

    AdmissionController::Config rate;
    rate.policy = AdmissionPolicy::RateLimit;
    rate.rateLimitQps = 4.0; // sized near single-replica capacity
    rate.burstSize = 16.0;

    AdmissionController::Config shed;
    shed.policy = AdmissionPolicy::LoadShed;
    shed.maxBacklogTokens = 60000;

    Row rows[] = {
        run_case("FCFS (no control)", Policy::SarathiFcfs, none),
        run_case("FCFS + rate limit", Policy::SarathiFcfs, rate),
        run_case("FCFS + load shed", Policy::SarathiFcfs, shed),
        run_case("QoServe relegation", Policy::QoServe, none),
    };

    std::printf("%-22s %10s %10s %10s %12s\n", "scheme", "viol(%)",
                "important", "rejected", "relegated");
    bench::printRule(70);
    for (const Row &row : rows) {
        std::printf("%-22s %10.2f %9.2f%% %9.2f%% %11.2f%%\n",
                    row.label, 100.0 * row.summary.violationRate,
                    100.0 * row.summary.importantViolationRate,
                    100.0 * row.summary.rejectedFraction,
                    100.0 * row.summary.relegatedFraction);
    }

    std::printf("\nRejection turns excess demand into hard failures "
                "regardless of importance; relegation\ndefers a slice "
                "of low-priority work and completes everything once "
                "the burst passes.\n");
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
