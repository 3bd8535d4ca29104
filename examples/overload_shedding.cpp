/**
 * @file
 * Graceful degradation under a traffic burst with free/paid tiers.
 *
 * Part 1: a serving deployment gets hit by a 3x traffic burst. Each
 * request carries an application hint: 30% come from the free tier,
 * 70% from paying customers. QoServe's eager relegation uses the
 * hint to shed free-tier work first, keeping paid-tier SLOs intact
 * through the burst — compared against Sarathi-FCFS, which degrades
 * everyone uniformly (§2.2's "Overload management" critique).
 *
 * Part 2: the same shape of capacity crunch arrives as a fault
 * instead of a burst — one of two replicas crashes mid-run, halving
 * capacity for two minutes. QoServe absorbs the loss the same way it
 * absorbs a burst (relegate free-tier work, re-dispatch the crashed
 * replica's orphans, serve everyone eventually) while a LoadShed
 * front door turns the outage into permanent rejections.
 *
 * Run: build/examples/overload_shedding
 */

#include <cstdio>

#include "app/qoserve.hh"

namespace {

using namespace qoserve;

struct TierOutcome
{
    std::size_t count = 0;
    std::size_t violations = 0;
    double worst = 0.0;
};

void
report(const char *label, const MetricsCollector &metrics)
{
    TierOutcome paid, free_tier;
    for (const RequestRecord &rec : metrics.records()) {
        const QosTier &tier = metrics.tiers()[rec.spec.tierId];
        TierOutcome &out = rec.spec.important ? paid : free_tier;
        ++out.count;
        out.violations += violatedSlo(rec, tier);
        // Rejected/abandoned requests have no finish time; they show
        // up in the violation column, not as infinite latency.
        if (rec.finishTime != kTimeNever)
            out.worst = std::max(out.worst, headlineLatency(rec, tier));
    }

    std::printf("\n%s\n", label);
    std::printf("  %-10s %10s %14s %18s\n", "tier", "requests",
                "violations", "worst latency (s)");
    std::printf("  %-10s %10zu %13.2f%% %18.2f\n", "paid", paid.count,
                100.0 * paid.violations / paid.count, paid.worst);
    std::printf("  %-10s %10zu %13.2f%% %18.2f\n", "free",
                free_tier.count,
                100.0 * free_tier.violations / free_tier.count,
                free_tier.worst);
}

/**
 * Part 2: run @p trace on two replicas, crash replica 0 during
 * [200 s, 320 s), and report how the crunch was absorbed.
 */
void
crashRun(const Trace &trace, Policy policy,
         AdmissionPolicy admission)
{
    ServingConfig scfg;
    scfg.policy = policy;
    scfg.useForestPredictor = false;
    auto predictor = makePredictor(scfg);

    ClusterSim::Config cc;
    cc.replica.hw = scfg.hw;
    cc.predictor = predictor.get();
    if (admission == AdmissionPolicy::LoadShed) {
        cc.admission.policy = AdmissionPolicy::LoadShed;
        cc.admission.maxBacklogTokens = 16000;
    }

    ClusterSim sim(cc, trace);
    sim.addReplicaGroup(2, makeSchedulerFactory(scfg));
    sim.eventQueue().schedule(SimTime{200.0},
                              [&] { sim.replica(0).fail(); });
    sim.eventQueue().schedule(SimTime{320.0},
                              [&] { sim.replica(0).recover(); });
    const MetricsCollector &metrics = sim.run();

    char label[96];
    std::snprintf(label, sizeof label, "%s + %s front door",
                  policyName(policy),
                  admission == AdmissionPolicy::LoadShed
                      ? "load-shedding"
                      : "admit-all");
    report(label, metrics);
    RunSummary s = summarize(metrics);
    std::printf("  availability: %.2f%%, rejected: %.2f%%, "
                "re-dispatched orphans: %llu, relegated: %.2f%%\n",
                100.0 * s.availability, 100.0 * s.rejectedFraction,
                static_cast<unsigned long long>(sim.redispatches()),
                100.0 * s.relegatedFraction);
}

} // namespace

int
main()
{
    using namespace qoserve;

    // 900 s of traffic at 2 QPS with a 300 s burst at 6 QPS in the
    // middle — well past one replica's capacity.
    BurstArrivals arrivals(2.0, 6.0, SimTime{300.0}, SimTime{600.0});
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .tiers(paperTierTable())
                      .lowPriorityFraction(0.3) // free tier
                      .seed(4)
                      .build(arrivals, 900.0);

    std::printf("workload: %zu requests, 2 QPS baseline with a 3x "
                "burst during [300 s, 600 s)\n",
                trace.requests.size());

    for (Policy policy : {Policy::SarathiFcfs, Policy::QoServe}) {
        Scenario sc;
        sc.serving.policy = policy;
        auto sim = runScenario(sc, trace).cluster;
        report(policyName(policy), sim->metrics());

        if (policy == Policy::QoServe) {
            RunSummary s = summarize(sim->metrics());
            std::printf("  relegated: %.2f%% of requests (served "
                        "opportunistically, never dropped)\n",
                        100.0 * s.relegatedFraction);
        }
    }

    std::printf("\nTakeaway: FCFS lets the burst cascade into every "
                "user's latency; QoServe sheds a\nbounded slice of "
                "free-tier work during the burst and pays it back in "
                "the trough.\n");

    // Part 2: the crunch arrives as a replica crash, not a burst.
    std::printf("\n=== Part 2: replica crash (1 of 2 replicas down "
                "during [200 s, 320 s)) ===\n");
    Trace crash_trace = TraceBuilder()
                            .dataset(azureCode())
                            .tiers(paperTierTable())
                            .lowPriorityFraction(0.3)
                            .seed(9)
                            .build(PoissonArrivals(4.0), 600.0);
    std::printf("workload: %zu requests at a steady 4 QPS on two "
                "replicas\n",
                crash_trace.requests.size());

    crashRun(crash_trace, Policy::SarathiFcfs,
             AdmissionPolicy::LoadShed);
    crashRun(crash_trace, Policy::QoServe, AdmissionPolicy::None);

    std::printf("\nTakeaway: to a load-shedding front door a crash "
                "looks like overload, so the lost\ncapacity becomes "
                "permanent rejections; QoServe re-dispatches the "
                "crashed replica's\norphans and relegates free-tier "
                "work until the replica returns — nobody is "
                "dropped.\n");
    return 0;
}
