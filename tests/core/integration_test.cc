/**
 * @file
 * End-to-end behavioural tests reproducing the paper's headline
 * claims at reduced scale: QoServe's violation advantage under load,
 * fairness of the hybrid policy, hint-driven relegation, and the
 * throughput value of dynamic chunking.
 */

#include "app/scenario.hh"

#include <gtest/gtest.h>

namespace qoserve {
namespace {

Trace
loadTrace(double qps, std::size_t count, std::uint64_t seed = 21,
          double low_priority = 0.0)
{
    return TraceBuilder()
        .dataset(azureCode())
        .seed(seed)
        .lowPriorityFraction(low_priority)
        .buildCount(PoissonArrivals(qps), count);
}

/** Run @p trace under @p cfg, every other setting at its default. */
ScenarioResult
serve(const ServingConfig &cfg, const Trace &trace)
{
    Scenario sc;
    sc.serving = cfg;
    return runScenario(sc, trace);
}

RunSummary
runPolicy(Policy policy, const Trace &trace, int replicas = 1)
{
    ServingConfig cfg;
    cfg.policy = policy;
    cfg.numReplicas = replicas;
    cfg.useForestPredictor = false; // oracle keeps tests fast
    return serve(cfg, trace).summary;
}

TEST(Integration, AllPoliciesMeetSlosAtLowLoad)
{
    Trace trace = loadTrace(1.0, 120);
    for (Policy policy : {Policy::QoServe, Policy::SarathiFcfs,
                          Policy::SarathiEdf, Policy::SarathiSrpf}) {
        RunSummary s = runPolicy(policy, trace);
        EXPECT_LT(s.violationRate, 0.02) << policyName(policy);
    }
}

TEST(Integration, QoServeBeatsFcfsUnderOverload)
{
    // ~4.5 QPS against a single replica is past the FCFS knee on
    // Az-Code (cf. Fig. 10/11, scaled down).
    Trace trace = loadTrace(4.5, 700);
    RunSummary fcfs = runPolicy(Policy::SarathiFcfs, trace);
    RunSummary qos = runPolicy(Policy::QoServe, trace);

    EXPECT_LT(qos.violationRate, fcfs.violationRate);
    EXPECT_LT(qos.p99Latency, fcfs.p99Latency);
}

TEST(Integration, QoServeBeatsEdfUnderOverload)
{
    // 8.5 QPS puts the strictest tier's load alone past the
    // fixed-chunk capacity, which is where EDF's violations spike
    // (Fig. 11a); QoServe's larger chunks and relegation absorb it.
    Trace trace = loadTrace(8.5, 1100, 23);
    RunSummary edf = runPolicy(Policy::SarathiEdf, trace);
    RunSummary qos = runPolicy(Policy::QoServe, trace);
    EXPECT_LT(qos.violationRate, edf.violationRate);
}

TEST(Integration, SrpfStarvesLongRequestsEvenAtModerateLoad)
{
    // Fig. 11(b,c): SRPF violates long-request SLOs far more than
    // short ones; QoServe keeps the split balanced.
    Trace trace = loadTrace(4.0, 800, 29);
    RunSummary srpf = runPolicy(Policy::SarathiSrpf, trace);
    RunSummary qos = runPolicy(Policy::QoServe, trace);

    if (srpf.longViolationRate > 0.0) {
        EXPECT_GT(srpf.longViolationRate,
                  srpf.shortViolationRate);
    }
    EXPECT_LT(qos.longViolationRate - qos.shortViolationRate, 0.5);
}

TEST(Integration, ImportantRequestsProtectedUnderOverload)
{
    // §4.3: with 20% of requests hinted low-priority, QoServe
    // relegates those first; important requests see far fewer
    // violations than the overall population under overload.
    Trace trace = loadTrace(5.5, 800, 31, 0.2);
    RunSummary qos = runPolicy(Policy::QoServe, trace);

    EXPECT_LE(qos.importantViolationRate, qos.violationRate);
    // And important requests must be dramatically better off than
    // they are under FCFS at the same load.
    RunSummary fcfs = runPolicy(Policy::SarathiFcfs, trace);
    EXPECT_LT(qos.importantViolationRate,
              0.5 * std::max(0.02, fcfs.importantViolationRate));
}

TEST(Integration, RelegationOnlyKicksInUnderPressure)
{
    RunSummary light = runPolicy(Policy::QoServe, loadTrace(1.0, 150, 37));
    EXPECT_LT(light.relegatedFraction, 0.05);

    RunSummary heavy =
        runPolicy(Policy::QoServe, loadTrace(8.5, 800, 37));
    EXPECT_GT(heavy.relegatedFraction, light.relegatedFraction);
}

TEST(Integration, DynamicChunkingShortensBatchOnlyMakespan)
{
    // A batch-only workload (no TBT constraints) lets dynamic
    // chunking run at the throughput-optimal chunk; the fixed-chunk
    // EDF baseline processes the same prompts at chunk 256 and needs
    // noticeably longer.
    TierTable batch_only = {batchTier(0, "Q", 3600.0)};
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .tiers(batch_only)
                      .seed(41)
                      .buildCount(PoissonArrivals(20.0), 200);

    ServingConfig dyn;
    dyn.policy = Policy::QoServe;
    dyn.useForestPredictor = false;
    auto dyn_sim = serve(dyn, trace).cluster;

    ServingConfig fixed;
    fixed.policy = Policy::SarathiEdf;
    auto fixed_sim = serve(fixed, trace).cluster;

    double dyn_makespan = dyn_sim->eventQueue().now().seconds();
    double fixed_makespan = fixed_sim->eventQueue().now().seconds();
    EXPECT_LT(dyn_makespan, 0.85 * fixed_makespan);
}

TEST(Integration, InteractiveTbtHeldByDynamicChunking)
{
    // Mixed tiers at moderate load: QoServe may use huge chunks but
    // never at the cost of an interactive request's token schedule.
    Trace trace = loadTrace(3.0, 400, 43);
    ServingConfig cfg;
    cfg.policy = Policy::QoServe;
    cfg.useForestPredictor = false;
    auto sim = serve(cfg, trace).cluster;

    // Eq. 2 anchors every token deadline to arrival, so a late first
    // token makes all later tokens "late" regardless of pacing. The
    // dynamic-chunking guarantee is therefore: among requests that
    // met their TTFT, (almost) none violates the TBT SLO.
    std::size_t q1_on_time = 0, q1_tbt_viol = 0;
    for (const auto &rec : sim->metrics().records()) {
        if (rec.spec.tierId != 0)
            continue;
        const QosTier &tier = trace.tiers[rec.spec.tierId];
        if (rec.ttft() > tier.ttftSlo)
            continue;
        ++q1_on_time;
        q1_tbt_viol += violatedTbtSlo(rec, tier);
    }
    ASSERT_GT(q1_on_time, 0u);
    EXPECT_LT(static_cast<double>(q1_tbt_viol) / q1_on_time, 0.02);
}

TEST(Integration, SharedClusterSustainsMoreThanSiloedAtEqualGpus)
{
    // The headline Fig. 1 / Table 4 effect, scaled down: at a load
    // where 3 shared replicas cope, a (1,1,1) silo split of the same
    // 3 GPUs collapses because tier load fluctuates.
    Trace trace = loadTrace(6.0, 900, 47);

    ClusterSim::Config cc;
    cc.replica.hw = llama3_8b_a100_tp1();

    ServingConfig qos_cfg;
    qos_cfg.useForestPredictor = false;
    auto predictor = makePredictor(qos_cfg);
    cc.predictor = predictor.get();

    ClusterSim shared(cc, trace);
    shared.addReplicaGroup(3, makeSchedulerFactory(qos_cfg));
    RunSummary shared_summary = summarize(shared.run());

    ServingConfig silo_cfg;
    silo_cfg.policy = Policy::SarathiFcfs;
    ClusterSim silo(cc, trace);
    for (int tier = 0; tier < 3; ++tier) {
        int group = silo.addReplicaGroup(1, makeSchedulerFactory(silo_cfg));
        silo.routeTier(tier, group);
    }
    RunSummary silo_summary = summarize(silo.run());

    EXPECT_LT(shared_summary.violationRate, silo_summary.violationRate);
}

} // namespace
} // namespace qoserve
