/**
 * @file
 * Tests for admission control and its integration with the cluster.
 */

#include "cluster/admission.hh"

#include <gtest/gtest.h>

#include <limits>

#include "cluster/cluster.hh"
#include "sched/baseline_schedulers.hh"

namespace qoserve {
namespace {

RequestSpec
spec(std::uint64_t id)
{
    RequestSpec s;
    s.id = id;
    s.promptTokens = 100;
    s.decodeTokens = 10;
    return s;
}

TEST(AdmissionController, NoneAdmitsEverything)
{
    AdmissionController ac({});
    const TokenCount backlog{1 << 30};
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(ac.admit(spec(i), SimTime{i * 0.001}, backlog));
    EXPECT_EQ(ac.admitted(), 100u);
    EXPECT_EQ(ac.rejected(), 0u);
}

TEST(AdmissionController, RateLimitEnforcesSustainedRate)
{
    AdmissionController::Config cfg;
    cfg.policy = AdmissionPolicy::RateLimit;
    cfg.rateLimitQps = 10.0;
    cfg.burstSize = 1.0;
    AdmissionController ac(cfg);
    const TokenCount backlog{0};

    // 100 arrivals over 5 s at 20 QPS: about half must be rejected.
    int admitted = 0;
    for (int i = 0; i < 100; ++i)
        admitted += ac.admit(spec(i), SimTime{i * 0.05}, backlog);
    EXPECT_NEAR(admitted, 50, 3);
}

TEST(AdmissionController, BurstBucketAbsorbsSpikes)
{
    AdmissionController::Config cfg;
    cfg.policy = AdmissionPolicy::RateLimit;
    cfg.rateLimitQps = 1.0;
    cfg.burstSize = 8.0;
    AdmissionController ac(cfg);
    const TokenCount backlog{0};

    // Eight simultaneous arrivals fit the bucket; the ninth does not.
    int admitted = 0;
    for (int i = 0; i < 9; ++i)
        admitted += ac.admit(spec(i), SimTime{1.0}, backlog);
    EXPECT_EQ(admitted, 8);

    // After 4 idle seconds, ~4 tokens refill.
    admitted = 0;
    for (int i = 0; i < 9; ++i)
        admitted += ac.admit(spec(100 + i), SimTime{5.0}, backlog);
    EXPECT_EQ(admitted, 4);
}

TEST(AdmissionController, FullBucketAdmitsBurstAtTimeZero)
{
    // The bucket starts full: a burst arriving at t=0 is admitted up
    // to burstSize even though no refill time has elapsed. This pins
    // the "pre-warmed bucket" semantics benches rely on.
    AdmissionController::Config cfg;
    cfg.policy = AdmissionPolicy::RateLimit;
    cfg.rateLimitQps = 2.0;
    cfg.burstSize = 5.0;
    AdmissionController ac(cfg);
    const TokenCount backlog{0};

    int admitted = 0;
    for (int i = 0; i < 10; ++i)
        admitted += ac.admit(spec(i), SimTime{0.0}, backlog);
    EXPECT_EQ(admitted, 5);
    EXPECT_EQ(ac.rejected(), 5u);
}

TEST(AdmissionController, RateLimitWithoutRateIsFatal)
{
    // Misconfiguration must fail loudly at construction, not admit
    // nothing (or everything) silently at runtime.
    AdmissionController::Config cfg;
    cfg.policy = AdmissionPolicy::RateLimit;
    cfg.rateLimitQps = 0.0;
    EXPECT_EXIT(AdmissionController ac(cfg),
                ::testing::ExitedWithCode(1), "rateLimitQps");
}

TEST(AdmissionController, SubUnityBurstSizeIsFatal)
{
    AdmissionController::Config cfg;
    cfg.policy = AdmissionPolicy::RateLimit;
    cfg.rateLimitQps = 5.0;
    cfg.burstSize = 0.5; // can never accumulate one whole token
    EXPECT_EXIT(AdmissionController ac(cfg),
                ::testing::ExitedWithCode(1), "burstSize");
}

TEST(AdmissionController, NonFiniteRateIsFatal)
{
    AdmissionController::Config cfg;
    cfg.policy = AdmissionPolicy::RateLimit;
    cfg.rateLimitQps = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(AdmissionController ac(cfg),
                ::testing::ExitedWithCode(1), "finite");
}

TEST(AdmissionController, LoadShedWithoutThresholdIsFatal)
{
    AdmissionController::Config cfg;
    cfg.policy = AdmissionPolicy::LoadShed;
    cfg.maxBacklogTokens = 0;
    EXPECT_EXIT(AdmissionController ac(cfg),
                ::testing::ExitedWithCode(1), "maxBacklogTokens");
}

TEST(AdmissionController, LoadShedUsesBacklogThreshold)
{
    AdmissionController::Config cfg;
    cfg.policy = AdmissionPolicy::LoadShed;
    cfg.maxBacklogTokens = 1000;
    AdmissionController ac(cfg);

    EXPECT_TRUE(ac.admit(spec(1), SimTime{0.0}, TokenCount{500}));
    EXPECT_FALSE(ac.admit(spec(2), SimTime{0.0}, TokenCount{2000}));
    EXPECT_EQ(ac.rejected(), 1u);
}

TEST(ClusterAdmission, RejectedRequestsBecomeViolationRecords)
{
    Trace trace = TraceBuilder().seed(83).buildCount(
        PoissonArrivals(10.0), 300);

    ClusterSim::Config cc;
    cc.replica.hw = llama3_8b_a100_tp1();
    cc.admission.policy = AdmissionPolicy::RateLimit;
    cc.admission.rateLimitQps = 5.0;
    cc.admission.burstSize = 4.0;

    ClusterSim sim(cc, trace);
    sim.addReplicaGroup(1, [](const SchedulerEnv &env) {
        return std::make_unique<FcfsScheduler>(env);
    });
    const MetricsCollector &metrics = sim.run();

    // Every request accounted for, rejected ones flagged.
    EXPECT_EQ(metrics.size(), 300u);
    RunSummary s = summarize(metrics);
    EXPECT_GT(s.rejectedFraction, 0.3);
    EXPECT_LT(s.rejectedFraction, 0.7);
    // A rejected request is necessarily an SLO violation.
    EXPECT_GE(s.violationRate, s.rejectedFraction);
    EXPECT_NEAR(static_cast<double>(sim.admission().rejected()) / 300.0,
                s.rejectedFraction, 1e-9);
}

TEST(ClusterAdmission, DefaultAdmitsEverything)
{
    Trace trace =
        TraceBuilder().seed(89).buildCount(PoissonArrivals(2.0), 100);
    ClusterSim::Config cc;
    cc.replica.hw = llama3_8b_a100_tp1();
    ClusterSim sim(cc, trace);
    sim.addReplicaGroup(1, [](const SchedulerEnv &env) {
        return std::make_unique<FcfsScheduler>(env);
    });
    RunSummary s = summarize(sim.run());
    EXPECT_EQ(s.rejectedFraction, 0.0);
}

} // namespace
} // namespace qoserve
