/**
 * @file
 * Tests for the serving configuration (app/serving_system.hh): policy
 * names, the scheduler and predictor factories, and configurations
 * served through runScenario().
 */

#include "app/serving_system.hh"

#include <gtest/gtest.h>

#include <utility>

#include "app/scenario.hh"

namespace qoserve {
namespace {

Trace
tinyTrace(double qps, std::size_t count, std::uint64_t seed = 3)
{
    return TraceBuilder()
        .dataset(azureCode())
        .seed(seed)
        .buildCount(PoissonArrivals(qps), count);
}

/** Serve @p trace under @p cfg, every other setting at its default. */
ScenarioResult
serve(const ServingConfig &cfg, Trace trace, const RunHooks &hooks = {})
{
    Scenario sc;
    sc.serving = cfg;
    return runScenario(sc, std::move(trace), hooks);
}

TEST(PolicyName, AllNamesDistinct)
{
    EXPECT_STREQ(policyName(Policy::QoServe), "QoServe");
    EXPECT_STREQ(policyName(Policy::SarathiFcfs), "Sarathi-FCFS");
    EXPECT_STREQ(policyName(Policy::SarathiEdf), "Sarathi-EDF");
    EXPECT_STREQ(policyName(Policy::SarathiSjf), "Sarathi-SJF");
    EXPECT_STREQ(policyName(Policy::SarathiSrpf), "Sarathi-SRPF");
    EXPECT_STREQ(policyName(Policy::Medha), "Medha");
    EXPECT_STREQ(policyName(Policy::SlosServeDp), "SLOs-Serve-DP");
}

TEST(MakePredictor, OnlyQoServeWithDynamicChunkingNeedsOne)
{
    ServingConfig cfg;
    cfg.policy = Policy::SarathiFcfs;
    EXPECT_FALSE(usesPredictor(cfg));
    EXPECT_EQ(makePredictor(cfg), nullptr);

    cfg.policy = Policy::QoServe;
    cfg.qoserve.enableDynamicChunking = false;
    EXPECT_FALSE(usesPredictor(cfg));
    EXPECT_EQ(makePredictor(cfg), nullptr);

    cfg.qoserve.enableDynamicChunking = true;
    cfg.useForestPredictor = false; // oracle: cheap to build in tests
    EXPECT_TRUE(usesPredictor(cfg));
    EXPECT_NE(makePredictor(cfg), nullptr);
}

TEST(ServingSystem, FactoryProducesNamedSchedulers)
{
    for (Policy policy :
         {Policy::QoServe, Policy::SarathiFcfs, Policy::SarathiEdf,
          Policy::SarathiSjf, Policy::SarathiSrpf, Policy::Medha,
          Policy::SlosServeDp}) {
        ServingConfig cfg;
        cfg.policy = policy;
        cfg.useForestPredictor = false;

        PerfModel perf(cfg.hw);
        BlockManager kv(TokenCount{cfg.hw.kvCapacityTokens()}, TokenCount{16});
        auto predictor = makePredictor(cfg);
        SchedulerEnv env;
        env.kv = &kv;
        env.perf = &perf;
        env.predictor = predictor.get();

        auto sched = makeSchedulerFactory(cfg)(env);
        EXPECT_STREQ(sched->name(), policyName(policy));
    }
}

TEST(ServingSystem, ServesTraceToCompletion)
{
    ServingConfig cfg;
    cfg.policy = Policy::SarathiFcfs;

    RunSummary s = serve(cfg, tinyTrace(2.0, 150)).summary;
    EXPECT_EQ(s.count, 150u);
}

TEST(ServingSystem, QoServeWithOraclePredictorServes)
{
    ServingConfig cfg;
    cfg.policy = Policy::QoServe;
    cfg.useForestPredictor = false;

    RunSummary s = serve(cfg, tinyTrace(2.0, 150)).summary;
    EXPECT_EQ(s.count, 150u);
    EXPECT_LT(s.violationRate, 0.05);
}

TEST(ServingSystem, InspectionExposesReplicas)
{
    ServingConfig cfg;
    cfg.policy = Policy::SarathiEdf;
    cfg.numReplicas = 2;

    auto sim = serve(cfg, tinyTrace(2.0, 100)).cluster;
    EXPECT_EQ(sim->numReplicas(), 2u);
    EXPECT_EQ(sim->metrics().size(), 100u);
    EXPECT_GT(sim->replica(0).iterations(), 0u);
    EXPECT_GT(sim->replica(1).iterations(), 0u);
}

TEST(ServingSystem, PredictorSharedAcrossServeCalls)
{
    ServingConfig cfg;
    cfg.policy = Policy::QoServe;
    cfg.useForestPredictor = false;
    auto predictor = makePredictor(cfg);
    RunHooks hooks;
    hooks.predictor = predictor.get();

    RunSummary a = serve(cfg, tinyTrace(1.0, 50, 5), hooks).summary;
    RunSummary b = serve(cfg, tinyTrace(1.0, 50, 5), hooks).summary;
    // Same trace, fresh cluster each time: identical results.
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
}

} // namespace
} // namespace qoserve
