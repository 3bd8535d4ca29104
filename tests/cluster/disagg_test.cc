/**
 * @file
 * Tests for the disaggregated prefill/decode pipeline.
 */

#include "cluster/disagg.hh"

#include <gtest/gtest.h>

#include "app/serving_system.hh"
#include "cluster/cluster.hh"
#include "sched/baseline_schedulers.hh"

namespace qoserve {
namespace {

SchedulerFactory
fcfsFactory(int chunk = 2048)
{
    ChunkedSchedulerConfig cfg;
    cfg.fixedChunkTokens = chunk;
    return [cfg](const SchedulerEnv &env) {
        return std::make_unique<FcfsScheduler>(env, cfg);
    };
}

DisaggCluster::Config
defaultConfig(DecodePolicy policy = DecodePolicy::StrictestTbtCap)
{
    DisaggCluster::Config cfg;
    cfg.replica.hw = llama3_8b_a100_tp1();
    cfg.numPrefillReplicas = 1;
    cfg.numDecodeReplicas = 1;
    cfg.prefillFactory = fcfsFactory();
    cfg.decodePolicy = policy;
    return cfg;
}

Trace
smallTrace(double qps, std::size_t count, std::uint64_t seed = 61)
{
    return TraceBuilder()
        .dataset(azureConv())
        .seed(seed)
        .buildCount(PoissonArrivals(qps), count);
}

TEST(DisaggCluster, AllRequestsCompleteEndToEnd)
{
    DisaggCluster sim(defaultConfig(), smallTrace(2.0, 150));
    const MetricsCollector &metrics = sim.run();
    EXPECT_EQ(metrics.size(), 150u);
    EXPECT_EQ(metrics.records().capacity(), 150u);
    for (const auto &rec : metrics.records()) {
        EXPECT_LT(rec.finishTime, kTimeNever);
        EXPECT_GE(rec.finishTime, rec.firstTokenTime);
    }
}

TEST(DisaggCluster, KvIsTransferredForEveryRequest)
{
    Trace trace = smallTrace(2.0, 100);
    double expected = 0.0;
    for (const auto &r : trace.requests) {
        expected += static_cast<double>(r.promptTokens) *
                    static_cast<double>(
                        llama3_8b().kvBytesPerToken());
    }
    DisaggCluster sim(defaultConfig(), trace);
    sim.run();
    EXPECT_DOUBLE_EQ(sim.kvBytesTransferred(), expected);
}

TEST(DisaggCluster, TransferDelayShowsUpBetweenFirstTokens)
{
    // The gap between the first token (prefill node) and the second
    // (decode node) must include the transfer time at 50 GB/s
    // (~2.7 ms per 1K tokens).
    constexpr double kBandwidth = DisaggCluster::Config::kKvTransferBandwidth;
    EXPECT_EQ(kBandwidth, 50e9);

    Trace trace = smallTrace(0.2, 10);
    DisaggCluster sim(defaultConfig(), trace);
    const MetricsCollector &metrics = sim.run();

    // The second token also waits for one decode iteration, which
    // costs at least a lone decode over the prompt's context.
    PerfModel perf(llama3_8b_a100_tp1());
    for (const auto &rec : metrics.records()) {
        if (rec.spec.decodeTokens < 2)
            continue;
        double min_transfer =
            rec.spec.promptTokens *
            static_cast<double>(llama3_8b().kvBytesPerToken()) / kBandwidth;
        BatchWork lone;
        lone.numDecodes = 1;
        lone.decodeCtxSum = rec.spec.promptTokens;
        EXPECT_GE(rec.maxTbt,
                  (min_transfer + perf.iterationTime(lone)) * 0.999);
    }
}

TEST(DisaggCluster, DecodePoolDrainsAndReleasesKv)
{
    DisaggCluster sim(defaultConfig(), smallTrace(2.0, 80));
    sim.run();
    // Replica 0 is the prefill pool, replica 1 the decode pool.
    const Replica &decode = sim.cluster().replica(1);
    EXPECT_EQ(decode.liveRequests(), 0u);
    EXPECT_EQ(decode.kv().usedBlocks(), 0);
    EXPECT_GT(decode.iterations(), 0u);
}

TEST(DisaggCluster, SingleTokenRequestsSkipDecodePool)
{
    Trace trace = toPrefillOnlyTrace(smallTrace(2.0, 50));
    DisaggCluster sim(defaultConfig(), trace);
    const MetricsCollector &metrics = sim.run();
    EXPECT_EQ(metrics.size(), 50u);
    EXPECT_EQ(sim.cluster().replica(1).iterations(), 0u);
}

TEST(DisaggCluster, MoreDecodeReplicasReduceTbtPressure)
{
    Trace trace = smallTrace(4.0, 300, 67);

    auto tbt_misses = [&](int decode_replicas) {
        DisaggCluster::Config cfg = defaultConfig();
        cfg.numPrefillReplicas = 2;
        cfg.numDecodeReplicas = decode_replicas;
        DisaggCluster sim(cfg, trace);
        const MetricsCollector &metrics = sim.run();
        std::int64_t misses = 0;
        for (const auto &rec : metrics.records())
            misses += rec.tbtDeadlineMisses;
        return misses;
    };

    EXPECT_LE(tbt_misses(2), tbt_misses(1));
}

TEST(DecodePolicyTest, DeadlineAwarePacksMoreWithMixedTbt)
{
    // Future-work feature: with a 50 ms and a 200 ms TBT class, the
    // deadline-aware decode pool sustains the relaxed class at lower
    // frequency and fits more concurrent work than the strictest-TBT
    // cap, yielding fewer token-deadline misses on the same trace.
    TierTable tiers = {
        interactiveTier(0, "fast", 6.0, fromMillis(50.0)),
        interactiveTier(1, "slow", 6.0, fromMillis(200.0)),
    };
    Trace trace = TraceBuilder()
                      .dataset(sharegpt()) // long decodes stress TBT
                      .tiers(tiers)
                      .seed(71)
                      .buildCount(PoissonArrivals(3.0), 200);

    auto run = [&](DecodePolicy policy) {
        DisaggCluster::Config cfg = defaultConfig(policy);
        cfg.numPrefillReplicas = 2;
        cfg.numDecodeReplicas = 1;
        DisaggCluster sim(cfg, trace);
        const MetricsCollector &metrics = sim.run();
        std::int64_t misses = 0;
        for (const auto &rec : metrics.records())
            misses += rec.tbtDeadlineMisses;
        return misses;
    };

    std::int64_t strict = run(DecodePolicy::StrictestTbtCap);
    std::int64_t aware = run(DecodePolicy::DeadlineAware);
    EXPECT_LE(aware, strict);
}

TEST(DisaggCluster, TraceIdsMustBeDenseInArrivalOrder)
{
    // A prefill record finds its request's full spec by id, so ids
    // {1, 0} would decode the wrong request.
    Trace trace = smallTrace(1.0, 2);
    std::swap(trace.requests[0].id, trace.requests[1].id);
    EXPECT_DEATH(DisaggCluster(defaultConfig(), trace), "dense from 0");
}

TEST(DisaggCluster, RunTwicePanics)
{
    DisaggCluster sim(defaultConfig(), smallTrace(1.0, 5));
    sim.run();
    EXPECT_DEATH(sim.run(), "twice");
}

} // namespace
} // namespace qoserve
