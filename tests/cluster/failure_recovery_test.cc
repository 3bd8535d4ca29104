/**
 * @file
 * End-to-end failure-recovery tests: crashes orphan requests, the
 * cluster re-dispatches them under a bounded retry budget, and no
 * request is ever lost — every trace request terminates as finished,
 * rejected, or retry-budget-exhausted.
 */

#include <algorithm>

#include <gtest/gtest.h>

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

FaultConfig
crashyConfig()
{
    FaultConfig fc;
    fc.crashMtbf = 15.0;
    fc.crashMttr = 5.0;
    fc.seed = 11;
    return fc;
}

TEST(FailureRecovery, NoRequestIsLost)
{
    Trace trace = smallTrace(4.0, 400, 21);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(3, fcfsFactory());
    FaultInjector injector(crashyConfig(), DomainConfig{}, sim);
    const MetricsCollector &metrics = sim.run();

    ASSERT_GT(injector.stats().crashes, 0u);
    // Every trace request produced exactly one terminal record.
    ASSERT_EQ(metrics.size(), trace.requests.size());
    for (const RequestRecord &rec : metrics.records()) {
        bool finished = rec.finishTime != kTimeNever;
        bool terminal = finished || rec.rejected || rec.retryExhausted;
        EXPECT_TRUE(terminal) << "request " << rec.spec.id
                              << " ended in no terminal state";
        EXPECT_GE(rec.retries, 0);
        if (rec.retryExhausted) {
            EXPECT_EQ(rec.finishTime, kTimeNever);
        }
    }

    // Crashes orphaned work, so the retry path must have engaged.
    EXPECT_GT(sim.redispatches(), 0u);
}

TEST(FailureRecovery, RetryBudgetIsRespected)
{
    Trace trace = smallTrace(4.0, 300, 23);
    ClusterSim::Config cfg = defaultConfig();
    cfg.retry.maxRetries = 2;
    ClusterSim sim(cfg, trace);
    sim.addReplicaGroup(2, fcfsFactory());
    FaultInjector injector(crashyConfig(), DomainConfig{}, sim);
    const MetricsCollector &metrics = sim.run();

    ASSERT_GT(injector.stats().crashes, 0u);
    for (const RequestRecord &rec : metrics.records())
        EXPECT_LE(rec.retries, cfg.retry.maxRetries);
}

TEST(FailureRecovery, ZeroBudgetAbandonsOrphansImmediately)
{
    Trace trace = smallTrace(4.0, 300, 25);
    ClusterSim::Config cfg = defaultConfig();
    cfg.retry.maxRetries = 0;
    ClusterSim sim(cfg, trace);
    sim.addReplicaGroup(2, fcfsFactory());
    FaultInjector injector(crashyConfig(), DomainConfig{}, sim);
    const MetricsCollector &metrics = sim.run();

    ASSERT_GT(injector.stats().crashes, 0u);
    EXPECT_EQ(sim.redispatches(), 0u);
    EXPECT_GT(sim.retriesExhausted(), 0u);
    RunSummary summary = summarize(metrics);
    EXPECT_LT(summary.availability, 1.0);
    EXPECT_GT(summary.retryExhaustedFraction, 0.0);
    // An abandoned request counts as violating its SLO.
    EXPECT_GE(summary.violationRate, summary.retryExhaustedFraction);
}

TEST(FailureRecovery, RetriesRecoverAvailabilityOverNoRetry)
{
    Trace trace = smallTrace(4.0, 400, 27);

    auto availabilityWith = [&](int max_retries, bool aware) {
        ClusterSim::Config cfg = defaultConfig();
        cfg.retry.maxRetries = max_retries;
        cfg.healthAwareRouting = aware;
        ClusterSim sim(cfg, trace);
        sim.addReplicaGroup(3, fcfsFactory());
        FaultInjector injector(crashyConfig(), DomainConfig{}, sim);
        return summarize(sim.run()).availability;
    };

    double blind_no_retry = availabilityWith(0, false);
    double recovering = availabilityWith(5, true);
    EXPECT_GE(recovering, blind_no_retry);
    EXPECT_LT(blind_no_retry, 1.0);
}

TEST(FailureRecovery, ResumedDecodePreservesFirstTokenTime)
{
    Trace trace = smallTrace(4.0, 400, 29);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(3, fcfsFactory());
    FaultInjector injector(crashyConfig(), DomainConfig{}, sim);
    const MetricsCollector &metrics = sim.run();

    ASSERT_GT(injector.stats().crashes, 0u);
    // Some request must have finished after being re-dispatched, and
    // its latency accounting must stay ordered: first token at or
    // before the last.
    bool saw_recovered = false;
    for (const RequestRecord &rec : metrics.records()) {
        if (rec.retries > 0 && rec.finishTime != kTimeNever) {
            saw_recovered = true;
            EXPECT_GT(rec.ttft(), 0.0);
            EXPECT_GE(rec.ttlt(), rec.ttft());
        }
    }
    EXPECT_TRUE(saw_recovered);
}

TEST(FailureRecovery, IdenticalSeedsGiveIdenticalRuns)
{
    Trace trace = smallTrace(4.0, 300, 31);

    auto runOnce = [&]() {
        ClusterSim sim(defaultConfig(), trace);
        sim.addReplicaGroup(3, fcfsFactory());
        FaultInjector injector(crashyConfig(), DomainConfig{}, sim);
        std::vector<RequestRecord> recs = sim.run().records();
        return recs;
    };

    std::vector<RequestRecord> a = runOnce();
    std::vector<RequestRecord> b = runOnce();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].spec.id, b[i].spec.id);
        EXPECT_EQ(a[i].finishTime, b[i].finishTime);
        EXPECT_EQ(a[i].firstTokenTime, b[i].firstTokenTime);
        EXPECT_EQ(a[i].retries, b[i].retries);
        EXPECT_EQ(a[i].retryExhausted, b[i].retryExhausted);
    }
}

TEST(FailureRecovery, DisabledFaultsMatchPlainClusterBitwise)
{
    Trace trace = smallTrace(3.0, 250, 33);

    ClusterSim plain(defaultConfig(), trace);
    plain.addReplicaGroup(2, fcfsFactory());
    std::vector<RequestRecord> without = plain.run().records();

    ClusterSim::Config cfg = defaultConfig();
    cfg.healthAwareRouting = true; // Healthy cluster: must cost nothing.
    ClusterSim sim(cfg, trace);
    sim.addReplicaGroup(2, fcfsFactory());
    FaultConfig off;
    FaultInjector injector(off, DomainConfig{}, sim);
    std::vector<RequestRecord> with = sim.run().records();

    ASSERT_EQ(with.size(), without.size());
    for (std::size_t i = 0; i < with.size(); ++i) {
        EXPECT_EQ(with[i].spec.id, without[i].spec.id);
        EXPECT_EQ(with[i].finishTime, without[i].finishTime);
        EXPECT_EQ(with[i].firstTokenTime, without[i].firstTokenTime);
        EXPECT_EQ(with[i].maxTbt, without[i].maxTbt);
        EXPECT_EQ(with[i].retries, 0);
    }
}

TEST(FailureRecovery, BackoffIsCappedExponential)
{
    // Doubling per attempt, capped at 2 s.
    RetryPolicy policy;
    policy.initialBackoff = 0.3;
    EXPECT_DOUBLE_EQ(policy.backoffFor(0), 0.3);
    EXPECT_DOUBLE_EQ(policy.backoffFor(1), 0.6);
    EXPECT_DOUBLE_EQ(policy.backoffFor(2), 1.2);
    EXPECT_DOUBLE_EQ(policy.backoffFor(3), 2.0);
    EXPECT_DOUBLE_EQ(policy.backoffFor(10), 2.0);
}

} // namespace
} // namespace qoserve
