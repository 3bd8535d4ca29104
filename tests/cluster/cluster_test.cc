/**
 * @file
 * Tests for the multi-replica cluster simulation.
 */

#include "cluster/cluster.hh"

#include <gtest/gtest.h>

#include "sched/baseline_schedulers.hh"
#include "workload/arrival.hh"

namespace qoserve {
namespace {

SchedulerFactory
fcfsFactory()
{
    return [](const SchedulerEnv &env) {
        return std::make_unique<FcfsScheduler>(env);
    };
}

ClusterSim::Config
defaultConfig()
{
    ClusterSim::Config cfg;
    cfg.replica.hw = llama3_8b_a100_tp1();
    return cfg;
}

Trace
smallTrace(double qps, std::size_t count, std::uint64_t seed = 1)
{
    return TraceBuilder()
        .dataset(azureCode())
        .seed(seed)
        .buildCount(PoissonArrivals(qps), count);
}

TEST(ClusterSim, AllRequestsComplete)
{
    ClusterSim sim(defaultConfig(), smallTrace(2.0, 200));
    sim.addReplicaGroup(1, fcfsFactory());
    const MetricsCollector &metrics = sim.run();
    EXPECT_EQ(metrics.size(), 200u);
}

TEST(ClusterSim, RoundRobinSpreadsLoad)
{
    ClusterSim sim(defaultConfig(), smallTrace(4.0, 400));
    sim.addReplicaGroup(4, fcfsFactory());
    sim.run();

    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(sim.replica(i).iterations(), 0u)
            << "replica " << i << " idle";
    }
    EXPECT_EQ(sim.numReplicas(), 4u);
    EXPECT_EQ(sim.totalGpus(), 4);
}

TEST(ClusterSim, TotalGpusScalesWithTp)
{
    ClusterSim::Config cfg;
    cfg.replica.hw = qwen_7b_a100_tp2();
    ClusterSim sim(cfg, smallTrace(1.0, 50));
    sim.addReplicaGroup(3, fcfsFactory());
    EXPECT_EQ(sim.totalGpus(), 6);
}

TEST(ClusterSim, SiloedRoutingSendsTiersToTheirGroups)
{
    Trace trace = smallTrace(3.0, 300);
    ClusterSim sim(defaultConfig(), trace);
    int g0 = sim.addReplicaGroup(1, fcfsFactory());
    int g1 = sim.addReplicaGroup(1, fcfsFactory());
    int g2 = sim.addReplicaGroup(1, fcfsFactory());
    sim.routeTier(0, g0);
    sim.routeTier(1, g1);
    sim.routeTier(2, g2);
    sim.run();

    // Every tier had requests, so every silo must have worked, and
    // work must be proportional to the tier shares (equal thirds).
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_GT(sim.replica(i).iterations(), 0u);
}

TEST(ClusterSim, MoreReplicasReduceLatency)
{
    Trace trace = smallTrace(6.0, 600, 7);

    ClusterSim one(defaultConfig(), trace);
    one.addReplicaGroup(1, fcfsFactory());
    RunSummary s1 = summarize(one.run());

    ClusterSim four(defaultConfig(), trace);
    four.addReplicaGroup(4, fcfsFactory());
    RunSummary s4 = summarize(four.run());

    EXPECT_LT(s4.p99Latency, s1.p99Latency);
    EXPECT_LE(s4.violationRate, s1.violationRate);
}

TEST(ClusterSim, DeterministicAcrossRuns)
{
    Trace trace = smallTrace(2.0, 150, 11);

    ClusterSim a(defaultConfig(), trace);
    a.addReplicaGroup(2, fcfsFactory());
    RunSummary sa = summarize(a.run());

    ClusterSim b(defaultConfig(), trace);
    b.addReplicaGroup(2, fcfsFactory());
    RunSummary sb = summarize(b.run());

    EXPECT_DOUBLE_EQ(sa.p99Latency, sb.p99Latency);
    EXPECT_DOUBLE_EQ(sa.violationRate, sb.violationRate);
}

TEST(ClusterSim, RunPresizesTheRecordStore)
{
    ClusterSim sim(defaultConfig(), smallTrace(2.0, 200));
    sim.addReplicaGroup(2, fcfsFactory());
    const MetricsCollector &metrics = sim.run();
    EXPECT_EQ(metrics.size(), 200u);
    // Allocated once at the trace's length, not regrown by doubling.
    EXPECT_EQ(metrics.records().capacity(), 200u);
}

TEST(ClusterSim, StreamingRunAllocatesNoRecordStore)
{
    ClusterSim sim(defaultConfig(), smallTrace(2.0, 200));
    sim.addReplicaGroup(2, fcfsFactory());
    sim.metricsCollector().setRetainRecords(false);
    const MetricsCollector &metrics = sim.run();
    EXPECT_EQ(metrics.totalRecorded(), 200u);
    EXPECT_EQ(metrics.records().capacity(), 0u);
}

TEST(ClusterSim, RunTwicePanics)
{
    ClusterSim sim(defaultConfig(), smallTrace(1.0, 10));
    sim.addReplicaGroup(1, fcfsFactory());
    sim.run();
    EXPECT_DEATH(sim.run(), "twice");
}

TEST(ToPrefillOnlyTrace, DropsDecodesToOneToken)
{
    Trace trace = smallTrace(1.0, 100);
    Trace prefill = toPrefillOnlyTrace(trace);
    ASSERT_EQ(prefill.requests.size(), trace.requests.size());
    for (const auto &r : prefill.requests) {
        EXPECT_EQ(r.decodeTokens, 1);
    }
    for (const auto &stats : prefill.appStats)
        EXPECT_LE(stats.conservativeDecodeTokens(), 1.0);
}

} // namespace
} // namespace qoserve
