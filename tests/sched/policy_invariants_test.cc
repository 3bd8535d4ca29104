/**
 * @file
 * Property tests: invariants every scheduling policy must maintain
 * under randomized workloads.
 *
 * For each policy and several random seeds, a replica serves a
 * random trace to completion; we then assert global invariants:
 * no request lost, exact token accounting, KV cache returned empty,
 * record timestamps consistent, decode-phase requests never KV-
 * preempted unless the engine's OOM valve fired, and scheduler
 * counters consistent with the work performed.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "app/scenario.hh"

namespace qoserve {
namespace {

using PolicyCase = std::tuple<Policy, std::uint64_t /*seed*/>;

class PolicyInvariants : public ::testing::TestWithParam<PolicyCase>
{
};

TEST_P(PolicyInvariants, RandomWorkloadMaintainsInvariants)
{
    auto [policy, seed] = GetParam();

    Trace trace = TraceBuilder()
                      .dataset(azureConv())
                      .seed(seed)
                      .lowPriorityFraction(0.25)
                      .buildCount(PoissonArrivals(3.5), 250);

    Scenario sc;
    sc.serving.policy = policy;
    sc.serving.useForestPredictor = false;
    auto sim = runScenario(sc, trace).cluster;
    const MetricsCollector &metrics = sim->metrics();

    // 1. Nothing lost, nothing duplicated.
    ASSERT_EQ(metrics.size(), trace.requests.size());
    std::vector<bool> seen(trace.requests.size(), false);
    for (const auto &rec : metrics.records()) {
        ASSERT_LT(rec.spec.id, seen.size());
        EXPECT_FALSE(seen[rec.spec.id]) << "duplicate completion";
        seen[rec.spec.id] = true;
    }

    // 2. Record timestamps are consistent with causality and the
    //    spec's token counts.
    for (const auto &rec : metrics.records()) {
        EXPECT_GE(rec.firstTokenTime, rec.spec.arrival);
        EXPECT_GE(rec.finishTime, rec.firstTokenTime);
        EXPECT_LT(rec.finishTime, kTimeNever);
        EXPECT_GE(rec.maxTbt, 0.0);
        EXPECT_LE(rec.tbtDeadlineMisses, rec.spec.decodeTokens);
    }

    // 3. The replica is fully drained: no live requests, no KV.
    const Replica &replica = sim->replica(0);
    EXPECT_EQ(replica.liveRequests(), 0u);
    EXPECT_EQ(replica.kv().usedBlocks(), 0);
    EXPECT_EQ(replica.kv().numOwners(), 0u);
    EXPECT_FALSE(replica.scheduler().hasWork());

    // 4. Scheduler counters cover exactly the work done. Prefill
    //    tokens scheduled >= total prompt tokens (== unless the OOM
    //    valve forced recomputation).
    std::int64_t total_prompt = 0;
    int total_kv_preemptions = 0;
    for (const auto &rec : metrics.records()) {
        total_prompt += rec.spec.promptTokens;
        total_kv_preemptions += rec.kvPreemptions;
    }
    const SchedulerStats &stats = replica.scheduler().stats();
    EXPECT_GE(static_cast<std::int64_t>(stats.prefillTokensScheduled),
              total_prompt);
    if (total_kv_preemptions == 0) {
        EXPECT_EQ(static_cast<std::int64_t>(stats.prefillTokensScheduled),
                  total_prompt);
    }
    EXPECT_EQ(stats.kvPreemptions,
              static_cast<std::uint64_t>(total_kv_preemptions));
    EXPECT_EQ(stats.batchesFormed, replica.iterations());

    // 5. The engine never idled while work was pending: busy time
    //    cannot exceed the simulated span.
    EXPECT_LE(replica.busyTime(), sim->eventQueue().now().seconds() + 1e-9);
}

std::string
policyCaseName(const ::testing::TestParamInfo<PolicyCase> &info)
{
    std::string name = policyName(std::get<0>(info.param));
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name + "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyInvariants,
    ::testing::Combine(
        ::testing::Values(Policy::QoServe, Policy::SarathiFcfs,
                          Policy::SarathiEdf, Policy::SarathiSjf,
                          Policy::SarathiSrpf, Policy::Medha,
                          Policy::SlosServeDp),
        ::testing::Values(1u, 2u, 3u)),
    policyCaseName);

/** Determinism: identical seeds give bitwise-identical outcomes. */
class PolicyDeterminism : public ::testing::TestWithParam<Policy>
{
};

TEST_P(PolicyDeterminism, RunsAreReproducible)
{
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(9)
                      .buildCount(PoissonArrivals(3.0), 150);

    Scenario sc;
    sc.serving.policy = GetParam();
    sc.serving.useForestPredictor = false;

    auto run = [&]() {
        std::vector<std::pair<double, double>> out;
        auto sim = runScenario(sc, trace).cluster;
        for (const auto &rec : sim->metrics().records())
            out.emplace_back(rec.firstTokenTime.seconds(), rec.finishTime.seconds());
        return out;
    };

    auto a = run();
    auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first);
        EXPECT_EQ(a[i].second, b[i].second);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyDeterminism,
    ::testing::Values(Policy::QoServe, Policy::SarathiFcfs,
                      Policy::SarathiEdf, Policy::SarathiSjf,
                      Policy::SarathiSrpf, Policy::Medha,
                      Policy::SlosServeDp),
    [](const ::testing::TestParamInfo<Policy> &info) {
        std::string name = policyName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace qoserve
