/**
 * @file
 * Tests for the deterministic fault injector.
 */

#include "fault/fault_injector.hh"

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

FaultConfig
crashyConfig(std::uint64_t seed = 7)
{
    FaultConfig fc;
    fc.crashMtbf = 20.0;
    fc.crashMttr = 5.0;
    fc.seed = seed;
    fc.horizon = SimTime{100.0};
    return fc;
}

TEST(FaultInjector, DisabledInjectorSchedulesNothing)
{
    Trace trace = smallTrace(2.0, 100);

    ClusterSim plain(defaultConfig(), trace);
    plain.addReplicaGroup(2, fcfsFactory());
    RunSummary without = summarize(plain.run());

    ClusterSim injected(defaultConfig(), trace);
    injected.addReplicaGroup(2, fcfsFactory());
    FaultConfig off; // both rates zero
    FaultInjector injector(off, injected);
    RunSummary with = summarize(injected.run());

    EXPECT_TRUE(injector.events().empty());
    EXPECT_EQ(injector.stats().crashes, 0u);
    EXPECT_EQ(with.count, without.count);
    EXPECT_EQ(with.p99Latency, without.p99Latency);
    EXPECT_EQ(with.violationRate, without.violationRate);
    EXPECT_DOUBLE_EQ(injector.machineAvailability(), 1.0);
}

TEST(FaultInjector, ScheduleIsDeterministicPerSeed)
{
    Trace trace = smallTrace(2.0, 150, 3);

    auto eventsFor = [&](std::uint64_t seed) {
        ClusterSim sim(defaultConfig(), trace);
        sim.addReplicaGroup(3, fcfsFactory());
        FaultInjector injector(crashyConfig(seed), sim);
        sim.run();
        return injector.events();
    };

    auto a = eventsFor(7);
    auto b = eventsFor(7);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].replica, b[i].replica);
        EXPECT_EQ(a[i].when, b[i].when);
    }

    auto c = eventsFor(8);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].when != c[i].when || a[i].kind != c[i].kind;
    EXPECT_TRUE(differs) << "different seeds gave the same schedule";
}

TEST(FaultInjector, EveryCrashIsRepairedAndCountsMatch)
{
    Trace trace = smallTrace(3.0, 200, 5);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(3, fcfsFactory());
    FaultInjector injector(crashyConfig(), sim);
    sim.run();

    const FaultStats &stats = injector.stats();
    ASSERT_GT(stats.crashes, 0u);
    // Recoveries are always delivered, even past the horizon.
    EXPECT_EQ(stats.recoveries, stats.crashes);
    EXPECT_GT(stats.meanTimeToRepair(), 0.0);
    for (std::size_t i = 0; i < sim.numReplicas(); ++i)
        EXPECT_EQ(sim.replica(i).health(), ReplicaHealth::Up);

    std::uint64_t logged_crashes = 0;
    for (const FaultEvent &ev : injector.events()) {
        if (ev.kind == FaultKind::Crash) {
            ++logged_crashes;
            EXPECT_LE(ev.when, injector.config().horizon);
        }
    }
    EXPECT_EQ(logged_crashes, stats.crashes);

    double avail = injector.machineAvailability();
    EXPECT_GT(avail, 0.0);
    EXPECT_LT(avail, 1.0);
}

TEST(FaultInjector, StragglerEpisodesSetAndClearSlowdown)
{
    Trace trace = smallTrace(2.0, 150, 9);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(2, fcfsFactory());

    FaultConfig fc;
    fc.stragglerMtbf = 15.0;
    fc.stragglerDuration = 5.0;
    fc.stragglerFactor = 3.0;
    fc.horizon = SimTime{60.0};
    FaultInjector injector(fc, sim);
    sim.run();

    EXPECT_GT(injector.stats().stragglerEpisodes, 0u);
    EXPECT_EQ(injector.stats().crashes, 0u);
    // Every episode ends: the cluster drains at full speed.
    for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
        EXPECT_EQ(sim.replica(i).health(), ReplicaHealth::Up);
        EXPECT_DOUBLE_EQ(sim.replica(i).slowdown(), 1.0);
    }
    bool saw_start = false, saw_end = false;
    for (const FaultEvent &ev : injector.events()) {
        saw_start |= ev.kind == FaultKind::StragglerStart;
        saw_end |= ev.kind == FaultKind::StragglerEnd;
        if (ev.kind == FaultKind::StragglerStart) {
            EXPECT_DOUBLE_EQ(ev.factor, 3.0);
        }
    }
    EXPECT_TRUE(saw_start);
    EXPECT_TRUE(saw_end);
    // Stragglers slow requests down but never lose them.
    EXPECT_EQ(sim.metrics().size(), trace.requests.size());
}

TEST(FaultInjectorDeath, EnabledWithoutHorizonIsFatal)
{
    Trace trace = smallTrace(1.0, 10);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(1, fcfsFactory());
    FaultConfig fc;
    fc.crashMtbf = 10.0;
    fc.horizon = SimTime{0.0};
    EXPECT_EXIT(FaultInjector(fc, sim),
                ::testing::ExitedWithCode(1), "horizon");
}

TEST(FaultInjectorDeath, SubUnityStragglerFactorIsFatal)
{
    Trace trace = smallTrace(1.0, 10);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(1, fcfsFactory());
    FaultConfig fc;
    fc.stragglerMtbf = 10.0;
    fc.stragglerFactor = 0.5;
    fc.horizon = SimTime{50.0};
    EXPECT_EXIT(FaultInjector(fc, sim),
                ::testing::ExitedWithCode(1), "factor");
}

TEST(FaultInjectorDeath, NonPositiveMttrIsFatal)
{
    Trace trace = smallTrace(1.0, 10);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(1, fcfsFactory());
    FaultConfig fc;
    fc.crashMtbf = 10.0;
    fc.crashMttr = 0.0;
    fc.horizon = SimTime{50.0};
    EXPECT_EXIT(FaultInjector(fc, sim),
                ::testing::ExitedWithCode(1), "mttr|MTTR|repair");
}

} // namespace
} // namespace qoserve
