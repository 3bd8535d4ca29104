/**
 * @file
 * Tests for correlated failure domains: zone outages that take whole
 * replica groups down at once, control-plane partitions that blind
 * routing to a subset of the fleet, and their composition with
 * independent per-replica crashes in the same fault injector.
 */

#include "fault/fault_injector.hh"

#include <gtest/gtest.h>

#include "obs/trace_sink.hh"
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

DomainConfig
outageConfig(std::uint64_t seed = 7)
{
    DomainConfig dc;
    dc.zones = 2;
    dc.zoneMtbf = 25.0;
    dc.zoneMttr = 8.0;
    dc.seed = seed;
    return dc;
}

/** The domain transitions on the trace stream, in order. */
std::vector<TraceEvent>
domainEvents(const TraceSink &sink)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &ev : sink.events()) {
        switch (ev.kind) {
          case TraceEventKind::ZoneOutage:
          case TraceEventKind::ZoneRestore:
          case TraceEventKind::PartitionStart:
          case TraceEventKind::PartitionEnd:
            out.push_back(ev);
            break;
          default:
            break;
        }
    }
    return out;
}

TEST(FailureDomains, DisabledInjectorIsByteNeutral)
{
    Trace trace = smallTrace(3.0, 200);

    ClusterSim plain(defaultConfig(), trace);
    plain.addReplicaGroup(4, fcfsFactory());
    std::vector<RequestRecord> without = plain.run().records();

    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(4, fcfsFactory());
    TraceSink sink;
    sim.setTraceSink(&sink);
    DomainConfig off; // zones and partitions both disabled
    FaultInjector injector(FaultConfig{}, off, sim);
    std::vector<RequestRecord> with = sim.run().records();

    EXPECT_TRUE(domainEvents(sink).empty());
    EXPECT_EQ(injector.stats().zoneOutages, 0u);
    EXPECT_EQ(injector.stats().partitions, 0u);
    ASSERT_EQ(with.size(), without.size());
    for (std::size_t i = 0; i < with.size(); ++i) {
        EXPECT_EQ(with[i].spec.id, without[i].spec.id);
        EXPECT_EQ(with[i].finishTime, without[i].finishTime);
        EXPECT_EQ(with[i].firstTokenTime, without[i].firstTokenTime);
    }
}

TEST(FailureDomains, ZonesPartitionReplicasContiguously)
{
    Trace trace = smallTrace(2.0, 50);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(5, fcfsFactory());
    DomainConfig dc = outageConfig();
    dc.zones = 2;
    FaultInjector injector(FaultConfig{}, dc, sim);

    // Every replica belongs to exactly one zone, zone ids are
    // non-decreasing in replica order, and both zones are non-empty.
    int last = 0;
    std::vector<int> sizes(2, 0);
    for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
        int z = injector.zoneOf(i);
        ASSERT_GE(z, 0);
        ASSERT_LT(z, 2);
        EXPECT_GE(z, last);
        last = z;
        ++sizes[z];
    }
    EXPECT_GT(sizes[0], 0);
    EXPECT_GT(sizes[1], 0);
    sim.run();
}

TEST(FailureDomains, ZoneOutagesFailAndRestoreTogether)
{
    Trace trace = smallTrace(4.0, 400, 3);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(4, fcfsFactory());
    TraceSink sink;
    sim.setTraceSink(&sink);
    FaultInjector injector(FaultConfig{}, outageConfig(), sim);
    sim.run();

    const FaultStats &stats = injector.stats();
    ASSERT_GT(stats.zoneOutages, 0u);
    // Restores are always delivered, even past the horizon, and every
    // downed replica comes back.
    EXPECT_EQ(stats.zoneRestores, stats.zoneOutages);
    EXPECT_GT(stats.replicasDowned, 0u);
    EXPECT_GT(stats.zoneDownSeconds, 0.0);
    for (std::size_t i = 0; i < sim.numReplicas(); ++i)
        EXPECT_EQ(sim.replica(i).health(), ReplicaHealth::Up);

    // The trace pairs outages with restores per zone (zone id in
    // arg), in chronological order.
    std::vector<int> open(2, 0);
    SimTime last{0.0};
    for (const TraceEvent &ev : domainEvents(sink)) {
        EXPECT_GE(ev.time, last);
        last = ev.time;
        if (ev.kind == TraceEventKind::ZoneOutage) {
            ASSERT_EQ(open[ev.arg], 0) << "zone failed twice";
            open[ev.arg] = 1;
        } else if (ev.kind == TraceEventKind::ZoneRestore) {
            ASSERT_EQ(open[ev.arg], 1) << "recovery without outage";
            open[ev.arg] = 0;
        }
    }
    EXPECT_EQ(open[0] + open[1], 0) << "an outage never healed";
}

TEST(FailureDomains, ScheduleIsDeterministicPerSeed)
{
    Trace trace = smallTrace(3.0, 250, 5);

    auto eventsFor = [&](std::uint64_t seed) {
        ClusterSim sim(defaultConfig(), trace);
        sim.addReplicaGroup(4, fcfsFactory());
        TraceSink sink;
        sim.setTraceSink(&sink);
        DomainConfig dc = outageConfig(seed);
        dc.partitionMtbf = 30.0;
        dc.partitionMttr = 6.0;
        FaultInjector injector(FaultConfig{}, dc, sim);
        sim.run();
        return domainEvents(sink);
    };

    auto a = eventsFor(7);
    auto b = eventsFor(7);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(eventsFor(8), a)
        << "different seeds gave the same schedule";
}

TEST(FailureDomains, PartitionsBlindAndHealTheRoutingView)
{
    Trace trace = smallTrace(4.0, 400, 9);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(4, fcfsFactory());
    TraceSink sink;
    sim.setTraceSink(&sink);
    DomainConfig dc;
    dc.partitionMtbf = 20.0;
    dc.partitionMttr = 8.0;
    dc.partitionFrac = 0.5;
    FaultInjector injector(FaultConfig{}, dc, sim);
    sim.run();

    const FaultStats &stats = injector.stats();
    ASSERT_GT(stats.partitions, 0u);
    EXPECT_EQ(stats.partitionHeals, stats.partitions);
    // Every partition healed: routing sees the whole fleet again.
    EXPECT_EQ(sim.blindedReplicas(), 0u);

    // PartitionStart events carry the blinded-replica count: half the
    // fleet at frac 0.5.
    for (const TraceEvent &ev : domainEvents(sink)) {
        if (ev.kind == TraceEventKind::PartitionStart) {
            EXPECT_EQ(ev.arg, 2);
        }
    }
}

TEST(FailureDomains, NoRequestIsLostUnderCompoundFailures)
{
    Trace trace = smallTrace(4.0, 500, 11);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(4, fcfsFactory());
    DomainConfig dc = outageConfig();
    dc.partitionMtbf = 25.0;
    dc.partitionMttr = 10.0;
    dc.partitionFrac = 0.5;
    FaultInjector injector(FaultConfig{}, dc, sim);
    const MetricsCollector &metrics = sim.run();

    ASSERT_GT(injector.stats().zoneOutages, 0u);
    ASSERT_GT(injector.stats().partitions, 0u);
    ASSERT_EQ(metrics.size(), trace.requests.size());
    for (const RequestRecord &rec : metrics.records()) {
        bool finished = rec.finishTime != kTimeNever;
        bool terminal = finished || rec.rejected || rec.retryExhausted;
        EXPECT_TRUE(terminal) << "request " << rec.spec.id
                              << " ended in no terminal state";
    }
}

TEST(FailureDomains, ComposesWithIndependentFaultInjector)
{
    Trace trace = smallTrace(4.0, 400, 13);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(4, fcfsFactory());

    FaultConfig fc;
    fc.crashMtbf = 15.0;
    fc.crashMttr = 5.0;
    fc.seed = 11;
    FaultInjector injector(fc, outageConfig(), sim);
    const MetricsCollector &metrics = sim.run();

    // Both schedules engaged; composition double-crashes nothing (the
    // run itself asserts on a double fail/recover) and every replica
    // ends healthy.
    const FaultStats &stats = injector.stats();
    ASSERT_GT(stats.crashes, 0u);
    ASSERT_GT(stats.zoneOutages, 0u);
    EXPECT_EQ(stats.recoveries, stats.crashes);
    EXPECT_EQ(stats.zoneRestores, stats.zoneOutages);
    for (std::size_t i = 0; i < sim.numReplicas(); ++i)
        EXPECT_EQ(sim.replica(i).health(), ReplicaHealth::Up);
    EXPECT_EQ(metrics.size(), trace.requests.size());
}

TEST(FailureDomainsDeath, DegenerateConfigsAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Trace trace = smallTrace(2.0, 20);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(2, fcfsFactory());

    const FaultConfig none;
    DomainConfig more_zones_than_replicas = outageConfig();
    more_zones_than_replicas.zones = 3;
    EXPECT_DEATH(FaultInjector(none, more_zones_than_replicas, sim),
                 "zones");

    DomainConfig zero_mttr = outageConfig();
    zero_mttr.zoneMttr = 0.0;
    EXPECT_DEATH(FaultInjector(none, zero_mttr, sim), "MTTR");

    DomainConfig bad_frac = outageConfig();
    bad_frac.partitionMtbf = 10.0;
    bad_frac.partitionFrac = 1.5;
    EXPECT_DEATH(FaultInjector(none, bad_frac, sim), "fraction");
}

} // namespace
} // namespace qoserve
