/**
 * @file
 * Tests for Scenario, buildTrace() and runScenario(). The golden
 * qoserve_sim ctests pin a full run's output; these cover what the
 * CLI cannot reach: requestCount, the predictor rule and the
 * beforeRun hook.
 */

#include "app/scenario.hh"

#include <gtest/gtest.h>

namespace qoserve {
namespace {

/** A small oracle-predictor scenario that runs in milliseconds. */
Scenario
smallScenario(Policy policy)
{
    Scenario sc;
    sc.serving.policy = policy;
    sc.serving.useForestPredictor = false;
    sc.qps = 4.0;
    sc.requestCount = 40;
    return sc;
}

TEST(Scenario, RequestCountReplacesDuration)
{
    Scenario sc = smallScenario(Policy::SarathiFcfs);
    EXPECT_EQ(buildTrace(sc).requests.size(), 40u);

    sc.requestCount = 0;
    sc.duration = 5.0;
    Trace trace = buildTrace(sc);
    ASSERT_FALSE(trace.requests.empty());
    EXPECT_LE(trace.requests.back().arrival.seconds(), 5.0);
}

TEST(Scenario, RunTrainsAPredictorOnlyWhenThePolicyUsesOne)
{
    Scenario sc = smallScenario(Policy::SarathiFcfs);
    Trace trace = buildTrace(sc);
    EXPECT_EQ(runScenario(sc, trace).predictor, nullptr);

    sc.serving.policy = Policy::QoServe;
    sc.serving.qoserve.enableDynamicChunking = false;
    EXPECT_EQ(runScenario(sc, trace).predictor, nullptr);

    sc.serving.qoserve.enableDynamicChunking = true;
    ScenarioResult trained = runScenario(sc, trace);
    EXPECT_NE(trained.predictor, nullptr);

    // A caller-supplied predictor is used instead, with the same
    // result.
    RunHooks hooks;
    hooks.predictor = trained.predictor.get();
    ScenarioResult supplied = runScenario(sc, trace, hooks);
    EXPECT_EQ(supplied.predictor, nullptr);
    EXPECT_EQ(supplied.summary.p99Latency, trained.summary.p99Latency);
}

TEST(Scenario, BeforeRunSeesTheAssembledClusterBeforeAnyEvent)
{
    Scenario sc = smallScenario(Policy::SarathiEdf);
    sc.serving.numReplicas = 2;
    int calls = 0;
    RunHooks hooks;
    hooks.beforeRun = [&](ClusterSim &sim) {
        ++calls;
        EXPECT_EQ(sim.numReplicas(), 2u);
        EXPECT_EQ(sim.eventQueue().firedEvents(), 0u);
    };
    ScenarioResult res = runScenario(sc, buildTrace(sc), hooks);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(res.summary.count, 40u);
    EXPECT_EQ(res.cluster->metrics().size(), 40u);
}

} // namespace
} // namespace qoserve
