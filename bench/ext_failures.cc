/**
 * @file
 * Extension study: replica failures, stragglers and recovery.
 *
 * The paper's evaluation assumes healthy replicas; production
 * clusters lose them. This study injects deterministic crash/restart
 * cycles (exponential MTBF/MTTR) and straggler episodes into a
 * 4-replica QoServe deployment and measures how much of the lost
 * capacity the recovery path wins back: health-aware routing (skip
 * down replicas, de-weight stragglers) plus re-dispatch of the
 * requests a crash orphaned, against a blind round-robin baseline
 * that never retries.
 *
 * Availability here is request-level: the fraction of trace requests
 * fully served (neither rejected nor abandoned after the retry
 * budget). Machine availability — replica-seconds up — is reported
 * alongside so the two are not conflated.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

struct RecoveryCase
{
    const char *name;
    LoadBalancePolicy lb;
    bool healthAware;
    int maxRetries;
};

constexpr RecoveryCase kCases[] = {
    {"rr blind no-retry", LoadBalancePolicy::RoundRobin, false, 0},
    {"rr health+retry", LoadBalancePolicy::RoundRobin, true, 3},
    {"least-loaded h+r", LoadBalancePolicy::LeastLoaded, true, 3},
    {"jsq health+retry", LoadBalancePolicy::ShortestQueue, true, 3},
};

ScenarioResult
runWith(const RecoveryCase &rc, const FaultConfig &fault)
{
    Scenario sc;
    sc.serving.policy = Policy::QoServe;
    sc.serving.numReplicas = 4;
    sc.loadBalance = rc.lb;
    sc.healthAwareRouting = rc.healthAware;
    sc.retry.maxRetries = rc.maxRetries;
    sc.fault = fault;
    sc.qps = 12.0;
    sc.duration = 600.0;
    sc.seed = 83;
    return bench::simulate(sc, buildTrace(sc));
}

void
crashSweep()
{
    // 0 disables crashes: the fault-free sanity column.
    const double mtbfs[] = {0.0, 120.0, 60.0, 30.0};

    std::printf("\nrequest availability (%%) vs crash MTBF "
                "(MTTR 20 s, 4 replicas, Az-Code @ 12 QPS)\n");
    std::printf("%-20s", "scenario \\ MTBF (s)");
    for (double mtbf : mtbfs) {
        if (mtbf <= 0.0)
            std::printf("%10s", "none");
        else
            std::printf("%10.0f", mtbf);
    }
    std::printf("\n");
    bench::printRule(60);

    for (const RecoveryCase &rc : kCases) {
        std::printf("%-20s", rc.name);
        for (double mtbf : mtbfs) {
            FaultConfig fault;
            fault.crashMtbf = mtbf;
            fault.crashMttr = 20.0;
            ScenarioResult r = runWith(rc, fault);
            std::printf("%10.2f", 100.0 * r.summary.availability);
        }
        std::printf("\n");
    }

    std::printf("\ndetail at MTBF 60 s\n");
    std::printf("%-20s%10s%10s%12s%10s%10s\n", "scenario", "avail%",
                "viol%", "redispatch", "retries", "mach%");
    bench::printRule(72);
    for (const RecoveryCase &rc : kCases) {
        FaultConfig fault;
        fault.crashMtbf = 60.0;
        fault.crashMttr = 20.0;
        ScenarioResult r = runWith(rc, fault);
        std::printf("%-20s%10.2f%10.2f%12llu%10.3f%10.2f\n", rc.name,
                    100.0 * r.summary.availability,
                    100.0 * r.summary.violationRate,
                    static_cast<unsigned long long>(
                        r.cluster->redispatches()),
                    r.summary.meanRetries,
                    100.0 * r.machineAvailability);
    }
}

void
stragglerSweep()
{
    std::printf("\np99 latency (s) vs straggler factor "
                "(episode MTBF 60 s, mean length 10 s, no crashes)\n");
    std::printf("%-20s%10s%10s%10s\n", "scenario \\ factor", "none",
                "2x", "4x");
    bench::printRule(50);

    for (const RecoveryCase &rc : kCases) {
        std::printf("%-20s", rc.name);
        for (double factor : {0.0, 2.0, 4.0}) {
            FaultConfig fault;
            if (factor > 0.0) {
                fault.stragglerMtbf = 60.0;
                fault.stragglerDuration = 10.0;
                fault.stragglerFactor = factor;
            }
            ScenarioResult r = runWith(rc, fault);
            std::printf("%10.2f", r.summary.p99Latency);
        }
        std::printf("\n");
    }
}

void
run()
{
    bench::printBanner("Replica failures, stragglers and recovery",
                       "fault-injection extension (DESIGN.md §8)");

    crashSweep();
    stragglerSweep();
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
