/**
 * @file
 * Tests for the deterministic fault injector.
 */

#include "fault/fault_injector.hh"

#include <gtest/gtest.h>

#include <algorithm>

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

FaultConfig
crashyConfig(std::uint64_t seed = 7)
{
    FaultConfig fc;
    fc.crashMtbf = 20.0;
    fc.crashMttr = 5.0;
    fc.seed = seed;
    return fc;
}

/** The injector's transitions on the trace stream, in order. */
std::vector<TraceEvent>
faultEvents(const TraceSink &sink)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &ev : sink.events()) {
        switch (ev.kind) {
          case TraceEventKind::Crash:
          case TraceEventKind::Recover:
          case TraceEventKind::StragglerStart:
          case TraceEventKind::StragglerEnd:
            out.push_back(ev);
            break;
          default:
            break;
        }
    }
    return out;
}

/**
 * Reference machine availability: replay the first @p count trace
 * events' Crash/Recover transitions, independent (arg 0) and
 * zone-correlated (arg 1) alike, clipping every outage to
 * [0, horizon]; outages still open run to the horizon.
 */
double
replayAvailability(const TraceSink &sink, std::size_t count,
                   SimTime horizon, std::size_t replicas)
{
    std::vector<SimTime> open(replicas, kTimeNever);
    double down = 0.0;
    std::size_t seen = 0;
    for (const TraceEvent &ev : sink.events()) {
        if (seen++ == count)
            break;
        auto r = static_cast<std::size_t>(ev.replica);
        if (ev.kind == TraceEventKind::Crash) {
            open[r] = ev.time;
        } else if (ev.kind == TraceEventKind::Recover) {
            down += std::min(ev.time, horizon) -
                    std::min(open[r], horizon);
            open[r] = kTimeNever;
        }
    }
    for (SimTime since : open) {
        if (since != kTimeNever)
            down += horizon - std::min(since, horizon);
    }
    double total = horizon.seconds() * static_cast<double>(replicas);
    return std::max(0.0, 1.0 - down / total);
}

TEST(FaultInjector, DisabledInjectorSchedulesNothing)
{
    Trace trace = smallTrace(2.0, 100);

    ClusterSim plain(defaultConfig(), trace);
    plain.addReplicaGroup(2, fcfsFactory());
    RunSummary without = summarize(plain.run());

    ClusterSim injected(defaultConfig(), trace);
    injected.addReplicaGroup(2, fcfsFactory());
    TraceSink sink;
    injected.setTraceSink(&sink);
    FaultConfig off; // both rates zero
    FaultInjector injector(off, DomainConfig{}, injected);
    RunSummary with = summarize(injected.run());

    EXPECT_TRUE(faultEvents(sink).empty());
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
        TraceSink sink;
        sim.setTraceSink(&sink);
        FaultInjector injector(crashyConfig(seed), DomainConfig{}, sim);
        sim.run();
        return faultEvents(sink);
    };

    auto a = eventsFor(7);
    auto b = eventsFor(7);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(eventsFor(8), a)
        << "different seeds gave the same schedule";
}

TEST(FaultInjector, EveryCrashIsRepairedAndCountsMatch)
{
    Trace trace = smallTrace(3.0, 200, 5);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(3, fcfsFactory());
    TraceSink sink;
    sim.setTraceSink(&sink);
    FaultInjector injector(crashyConfig(), DomainConfig{}, sim);
    sim.run();

    const FaultStats &stats = injector.stats();
    ASSERT_GT(stats.crashes, 0u);
    // Recoveries are always delivered, even past the horizon.
    EXPECT_EQ(stats.recoveries, stats.crashes);
    EXPECT_GT(stats.meanTimeToRepair(), 0.0);
    for (std::size_t i = 0; i < sim.numReplicas(); ++i)
        EXPECT_EQ(sim.replica(i).health(), ReplicaHealth::Up);

    std::uint64_t logged_crashes = 0;
    for (const TraceEvent &ev : faultEvents(sink)) {
        if (ev.kind == TraceEventKind::Crash) {
            ++logged_crashes;
            EXPECT_LE(ev.time, trace.requests.back().arrival);
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
    TraceSink sink;
    sim.setTraceSink(&sink);

    FaultConfig fc;
    fc.stragglerMtbf = 15.0;
    fc.stragglerDuration = 5.0;
    fc.stragglerFactor = 3.0;
    FaultInjector injector(fc, DomainConfig{}, sim);
    sim.run();

    EXPECT_GT(injector.stats().stragglerEpisodes, 0u);
    EXPECT_EQ(injector.stats().crashes, 0u);
    // Every episode ends: the cluster drains at full speed.
    for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
        EXPECT_EQ(sim.replica(i).health(), ReplicaHealth::Up);
        EXPECT_DOUBLE_EQ(sim.replica(i).slowdown(), 1.0);
    }
    bool saw_start = false, saw_end = false;
    for (const TraceEvent &ev : faultEvents(sink)) {
        saw_start |= ev.kind == TraceEventKind::StragglerStart;
        saw_end |= ev.kind == TraceEventKind::StragglerEnd;
        if (ev.kind == TraceEventKind::StragglerStart) {
            EXPECT_DOUBLE_EQ(ev.value, 3.0);
        }
    }
    EXPECT_TRUE(saw_start);
    EXPECT_TRUE(saw_end);
    // Stragglers slow requests down but never lose them.
    EXPECT_EQ(sim.metrics().size(), trace.requests.size());
}

TEST(FaultInjector, MachineAvailabilityMatchesATraceReplay)
{
    // Availability accrues as repairs land; replaying the trace's
    // Crash/Recover events must give the same value bit for bit, both
    // mid-run (probes) and after the run. Long repairs leave outages
    // open at the probes and land repairs past the horizon (the last
    // arrival). The zoned case adds zone outages: their replica-seconds
    // count like an independent crash's.
    Trace trace = smallTrace(3.0, 200, 5);
    const SimTime horizon = trace.requests.back().arrival;
    std::size_t open_at_probe = 0, repairs_past_horizon = 0;
    std::size_t zone_crashes = 0;
    for (bool zoned : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            ClusterSim sim(defaultConfig(), trace);
            sim.addReplicaGroup(3, fcfsFactory());
            TraceSink sink;
            sim.setTraceSink(&sink);
            FaultConfig fc = crashyConfig(seed);
            fc.crashMttr = 15.0;
            DomainConfig dc;
            if (zoned) {
                dc.zones = 2;
                dc.zoneMtbf = 30.0;
                dc.zoneMttr = 12.0;
                dc.seed = seed;
            }
            FaultInjector injector(fc, dc, sim);

            struct Probe
            {
                std::size_t events = 0;
                double availability = 0.0;
            };
            std::vector<Probe> probes;
            for (SimTime at : {SimTime{horizon.seconds() / 2.0},
                               horizon + 0.5}) {
                sim.eventQueue().schedule(at, [&]() {
                    for (std::size_t i = 0; i < sim.numReplicas(); ++i)
                        open_at_probe += sim.replica(i).health() ==
                                         ReplicaHealth::Down;
                    probes.push_back(
                        {sink.size(), injector.machineAvailability()});
                });
            }
            sim.run();
            probes.push_back({sink.size(), injector.machineAvailability()});

            ASSERT_EQ(probes.size(), 3u);
            for (const Probe &p : probes) {
                EXPECT_EQ(p.availability,
                          replayAvailability(sink, p.events, horizon,
                                             sim.numReplicas()))
                    << (zoned ? "zoned " : "") << "seed " << seed
                    << " after " << p.events << " events";
            }
            for (const TraceEvent &ev : faultEvents(sink)) {
                repairs_past_horizon +=
                    ev.kind == TraceEventKind::Recover &&
                    ev.time > horizon;
                zone_crashes +=
                    ev.kind == TraceEventKind::Crash && ev.arg == 1;
            }
            EXPECT_LT(probes.back().availability, 1.0)
                << "seed " << seed;
        }
    }
    EXPECT_GT(open_at_probe, 0u);
    EXPECT_GT(repairs_past_horizon, 0u);
    EXPECT_GT(zone_crashes, 0u);
}

TEST(FaultInjectorDeath, SubUnityStragglerFactorIsFatal)
{
    Trace trace = smallTrace(1.0, 10);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(1, fcfsFactory());
    FaultConfig fc;
    fc.stragglerMtbf = 10.0;
    fc.stragglerFactor = 0.5;
    EXPECT_EXIT(FaultInjector(fc, DomainConfig{}, sim),
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
    EXPECT_EXIT(FaultInjector(fc, DomainConfig{}, sim),
                ::testing::ExitedWithCode(1), "mttr|MTTR|repair");
}

} // namespace
} // namespace qoserve
