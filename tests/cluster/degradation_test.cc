/**
 * @file
 * Graceful-degradation tests: the per-replica circuit breaker,
 * deadline-aware cancellation of provably-late retries, the brownout
 * controller's stepped degraded modes, and the retry backoff's
 * saturation property.
 */

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.hh"
#include "cluster/brownout.hh"
#include "fault/fault_injector.hh"
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

/** Blind routing to replica 0, then kill it: the stale view keeps
 *  dispatching to the corpse, which is exactly what trips a breaker. */
void
scheduleBlindCrash(ClusterSim &sim, SimDuration fail_at,
                   SimDuration recover_at)
{
    sim.blindReplica(0);
    sim.eventQueue().schedule(SimTime{fail_at},
                              [&sim]() { sim.replica(0).fail(); });
    sim.eventQueue().schedule(SimTime{recover_at}, [&sim]() {
        sim.replica(0).recover();
        sim.unblindReplica(0);
    });
}

TEST(CircuitBreaker, TripsOnConsecutiveDispatchFailuresAndRecloses)
{
    Trace trace = smallTrace(4.0, 150, 41);
    ClusterSim::Config cfg = defaultConfig();
    cfg.breaker.failureThreshold = 2;
    cfg.breaker.cooldown = 0.5;
    ClusterSim sim(cfg, trace);
    sim.addReplicaGroup(2, fcfsFactory());
    scheduleBlindCrash(sim, 0.001, 10.0);
    const MetricsCollector &metrics = sim.run();

    // The stale view fed the dead replica until the breaker tripped;
    // half-open probes against the still-dead process re-tripped it.
    EXPECT_GE(sim.breakerTrips(), 2u);
    // After recovery the half-open probe succeeded and the breaker
    // closed for good.
    EXPECT_FALSE(sim.breakerOpen(0));

    // The breaker turned a dead-replica storm into rerouted requests:
    // nothing was lost and nothing exhausted its budget.
    ASSERT_EQ(metrics.size(), trace.requests.size());
    RunSummary summary = summarize(metrics);
    EXPECT_DOUBLE_EQ(summary.availability, 1.0);
    EXPECT_GT(sim.redispatches(), 0u);
}

TEST(CircuitBreaker, DisabledBreakerIsByteNeutral)
{
    Trace trace = smallTrace(4.0, 150, 43);

    auto recordsWith = [&](CircuitBreakerConfig breaker) {
        ClusterSim::Config cfg = defaultConfig();
        cfg.breaker = breaker;
        ClusterSim sim(cfg, trace);
        sim.addReplicaGroup(2, fcfsFactory());
        scheduleBlindCrash(sim, 0.001, 10.0);
        return sim.run().records();
    };

    // Threshold 0 disables the breaker: the run must be bit-identical
    // to the default config even on the failure path.
    std::vector<RequestRecord> without = recordsWith({});
    CircuitBreakerConfig off;
    off.failureThreshold = 0;
    off.cooldown = 123.0; // Irrelevant when disabled.
    std::vector<RequestRecord> with = recordsWith(off);
    ASSERT_EQ(with.size(), without.size());
    for (std::size_t i = 0; i < with.size(); ++i) {
        EXPECT_EQ(with[i].spec.id, without[i].spec.id);
        EXPECT_EQ(with[i].finishTime, without[i].finishTime);
        EXPECT_EQ(with[i].retries, without[i].retries);
    }
}

TEST(DeadlineCancel, AbandonsProvablyLateRequestsEarly)
{
    Trace trace = smallTrace(3.0, 120, 47);

    auto runWith = [&](bool cancel) {
        ClusterSim::Config cfg = defaultConfig();
        cfg.retry.maxRetries = 50;
        cfg.deadlineCancel = cancel;
        auto sim = std::make_unique<ClusterSim>(cfg, trace);
        sim->addReplicaGroup(1, fcfsFactory());
        // The only replica dies immediately and never recovers:
        // every request spins in the retry loop until its terminal
        // state.
        sim->eventQueue().schedule(
            SimTime{0.001}, [&s = *sim]() { s.replica(0).fail(); });
        sim->run();
        return sim;
    };

    auto with = runWith(true);
    // Interactive (Q1) deadlines are provably unreachable within a
    // few backoffs; batch tiers (600/1800 s TTLT) instead burn out
    // their 50-attempt budget.
    EXPECT_GT(with->deadlineCancelled(), 0u);
    EXPECT_GT(with->retriesExhausted(), 0u);
    // Conservation: cancelled requests still produce their terminal
    // record.
    EXPECT_EQ(with->metrics().totalRecorded(), trace.requests.size());

    auto without = runWith(false);
    EXPECT_EQ(without->deadlineCancelled(), 0u);
    // Cancellation gives up strictly earlier than budget exhaustion,
    // so it burns fewer re-dispatches on hopeless requests.
    EXPECT_LT(with->redispatches(), without->redispatches());
}

TEST(Brownout, StepsThroughDegradedModesUnderOverload)
{
    // One replica at 3x its capacity: backlog builds immediately.
    Trace trace = smallTrace(6.0, 200, 53);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(1, fcfsFactory());

    BrownoutConfig bc;
    bc.enabled = true;
    bc.interval = 0.5;
    bc.enterBacklog = 50.0;
    bc.exitBacklog = 10.0;
    bc.capTokens = 16;
    BrownoutController ctl(bc, sim);
    ctl.start();
    const MetricsCollector &metrics = sim.run();

    // Sustained overload walks the controller through every mode:
    // cap -> shed -> bypass.
    EXPECT_EQ(ctl.maxLevel(), kBrownoutModes - 1);
    EXPECT_GE(ctl.steps(), 3u);
    EXPECT_GT(sim.brownoutShed(), 0u);
    EXPECT_GT(sim.brownoutCapped(), 0u);

    // Shed requests are front-door rejections: one record each, no
    // retries, and nothing lost overall.
    ASSERT_EQ(metrics.size(), trace.requests.size());
    std::uint64_t rejected = 0;
    for (const RequestRecord &rec : metrics.records()) {
        if (rec.rejected) {
            ++rejected;
            EXPECT_EQ(rec.retries, 0);
        }
    }
    EXPECT_EQ(rejected, sim.brownoutShed());
}

TEST(Brownout, StepsAfterThreeSamplesOverAndFiveUnder)
{
    // One replica at twice its capacity for a while, then a light
    // tail of one arrival every 2 s: the backlog climbs past the enter
    // threshold and then drains below the exit one.
    Trace trace = smallTrace(4.0, 240, 61);
    for (std::size_t i = 180; i < trace.requests.size(); ++i)
        trace.requests[i].arrival =
            trace.requests[179].arrival + 2.0 * static_cast<double>(i - 179);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(1, fcfsFactory());

    BrownoutConfig bc;
    bc.enabled = true;
    bc.interval = 0.5;
    bc.enterBacklog = 2000.0;
    bc.exitBacklog = 500.0;
    BrownoutController ctl(bc, sim);

    // A probe scheduled before the controller fires just ahead of it
    // at every tick: it reads the backlog the controller is about to
    // read and the level the previous tick left.
    std::vector<double> backlog;
    std::vector<int> levelBefore;
    std::function<void()> probe = [&] {
        backlog.push_back(ctl.backlogPerReplica());
        levelBefore.push_back(ctl.level());
        if (sim.eventQueue().hasRealWork())
            sim.eventQueue().scheduleDaemonAfter(bc.interval, probe);
    };
    sim.eventQueue().scheduleDaemon(SimTime{0.0}, probe);
    ctl.start();
    sim.run();

    // Replay the hysteresis rule at 3 samples in and 5 out.
    int level = 0, over = 0, under = 0, ups = 0, downs = 0;
    ASSERT_GT(backlog.size(), 20u);
    for (std::size_t k = 0; k + 1 < backlog.size(); ++k) {
        ASSERT_EQ(levelBefore[k], level) << "tick " << k;
        if (backlog[k] > bc.enterBacklog) {
            ++over;
            under = 0;
            if (over == 3 && level < kBrownoutModes - 1) {
                ++level;
                ++ups;
                over = 0;
            }
        } else if (backlog[k] < bc.exitBacklog) {
            ++under;
            over = 0;
            if (under == 5 && level > 0) {
                --level;
                ++downs;
                under = 0;
            }
        } else {
            over = 0;
            under = 0;
        }
    }
    EXPECT_GE(ups, 2);
    EXPECT_GE(downs, 1);
    EXPECT_EQ(ctl.steps(), static_cast<std::uint64_t>(ups + downs));
}

TEST(Brownout, DisabledControllerIsByteNeutral)
{
    Trace trace = smallTrace(5.0, 150, 59);

    ClusterSim plain(defaultConfig(), trace);
    plain.addReplicaGroup(1, fcfsFactory());
    std::vector<RequestRecord> without = plain.run().records();

    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(1, fcfsFactory());
    BrownoutConfig off; // enabled = false
    BrownoutController ctl(off, sim);
    ctl.start(); // No-op when disabled.
    std::vector<RequestRecord> with = sim.run().records();

    EXPECT_EQ(ctl.steps(), 0u);
    EXPECT_EQ(sim.brownoutShed(), 0u);
    ASSERT_EQ(with.size(), without.size());
    for (std::size_t i = 0; i < with.size(); ++i) {
        EXPECT_EQ(with[i].spec.id, without[i].spec.id);
        EXPECT_EQ(with[i].finishTime, without[i].finishTime);
        EXPECT_EQ(with[i].firstTokenTime, without[i].firstTokenTime);
    }
}

TEST(Degradation, CrashDuringCachedPrefillConservesPrefixRefcounts)
{
    // Shared-prefix workload on a prefix-caching fleet, with a
    // breaker-guarded blind crash landing mid-stream: the crash tears
    // down a replica whose scheduler holds requests attached to
    // cached prefixes. Refcount conservation must survive the
    // teardown and the post-recovery re-dispatch storm.
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(61)
                      .sharedPrefix([] {
                          SharedPrefixConfig sp;
                          sp.shareRatio = 0.8;
                          sp.numPools = 4;
                          return sp;
                      }())
                      .buildCount(PoissonArrivals(6.0), 300);

    ClusterSim::Config cfg = defaultConfig();
    cfg.replica.prefixCache.enabled = true;
    cfg.breaker.failureThreshold = 2;
    cfg.breaker.cooldown = 0.5;
    ClusterSim sim(cfg, trace);
    sim.addReplicaGroup(2, fcfsFactory());
    scheduleBlindCrash(sim, 3.0, 12.0);
    const MetricsCollector &metrics = sim.run();

    EXPECT_GE(sim.breakerTrips(), 1u);
    ASSERT_EQ(metrics.size(), trace.requests.size());

    // Full-level audit of the final state: the radix tree agrees with
    // the KV shared-block table on every replica, and refcounts
    // conserve exactly.
    InvariantAuditor::Options opts;
    opts.level = audit::CheckLevel::Full;
    opts.failFast = false;
    InvariantAuditor auditor(opts);
    for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
        const Replica &replica = sim.replica(i);
        auditor.checkBlockManager(replica.kv(), sim.eventQueue().now());
        auditor.checkPrefixCache(replica.prefixCache(), replica.kv(),
                                 sim.eventQueue().now());
    }
    EXPECT_TRUE(auditor.clean())
        << (auditor.violations().empty()
                ? "violations were dropped"
                : auditor.violations().front().detail);
}

TEST(RetryBackoff, IsMonotoneAndSaturatesWithoutOverflow)
{
    RetryPolicy policy;
    policy.initialBackoff = 0.05;
    constexpr SimDuration kCap = RetryPolicy::kMaxBackoff;

    // Property sweep far past where a naive pow() would overflow
    // (0.05 * 2^70 ~ 5.9e19): the backoff must be finite, positive,
    // monotone non-decreasing, capped, and saturated once it hits
    // the ceiling.
    SimDuration prev = 0.0;
    bool saturated = false;
    for (int attempt = 0; attempt <= 70; ++attempt) {
        SimDuration delay = policy.backoffFor(attempt);
        EXPECT_TRUE(std::isfinite(delay)) << "attempt " << attempt;
        EXPECT_GT(delay, 0.0);
        EXPECT_GE(delay, prev) << "backoff regressed at " << attempt;
        EXPECT_LE(delay, kCap);
        if (saturated) {
            EXPECT_EQ(delay, kCap);
        }
        if (delay == kCap)
            saturated = true;
        prev = delay;
    }
    EXPECT_TRUE(saturated);
    EXPECT_EQ(policy.backoffFor(60), policy.backoffFor(70));

    // A tiny first backoff takes many doublings to reach the cap but
    // still saturates there.
    RetryPolicy tiny;
    tiny.initialBackoff = 1e-9;
    for (int attempt = 0; attempt <= 100; ++attempt) {
        SimDuration delay = tiny.backoffFor(attempt);
        EXPECT_TRUE(std::isfinite(delay));
        EXPECT_LE(delay, kCap);
    }
    EXPECT_LT(tiny.backoffFor(30), kCap);
    EXPECT_EQ(tiny.backoffFor(100), kCap);
}

} // namespace
} // namespace qoserve
