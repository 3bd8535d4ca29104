/**
 * @file
 * Tests for the SLOs-Serve-style DP scheduler.
 */

#include "sched/dp_scheduler.hh"

#include <gtest/gtest.h>

#include "sched_test_util.hh"

namespace qoserve {
namespace {

using test::SchedEnvFixture;
using test::runIteration;

class DpSchedulerTest : public ::testing::Test
{
  protected:
    SchedEnvFixture fx_;

    DpScheduler
    makeSched()
    {
        return DpScheduler(fx_.env);
    }
};

TEST_F(DpSchedulerTest, CompletesAWorkload)
{
    DpScheduler sched = makeSched();
    int completed = 0;
    sched.setCompletionHandler([&](Request *) { ++completed; });
    for (int i = 0; i < 10; ++i) {
        sched.enqueue(
            fx_.makeRequest(i, SimTime{0.0}, 300 + 100 * i, 2 + i % 4, i % 3),
            SimTime{0.0});
    }
    SimTime now;
    int guard = 0;
    while (sched.hasWork() && ++guard < 500)
        runIteration(sched, fx_.perf, now);
    EXPECT_EQ(completed, 10);
    EXPECT_EQ(fx_.kv.usedBlocks(), 0);
}

TEST_F(DpSchedulerTest, UrgentRequestWinsTheKnapsack)
{
    DpScheduler sched = makeSched();
    // A request about to miss its 6 s TTFT competes with fresh ones
    // whose value (inverse slack) is far lower.
    Request *urgent = fx_.makeRequest(1, SimTime{0.0}, 400, 3, 0);
    Request *fresh = fx_.makeRequest(2, SimTime{5.0}, 400, 3, 2);
    sched.enqueue(urgent, SimTime{5.0});
    sched.enqueue(fresh, SimTime{5.0});

    Batch batch;
    sched.formBatchInto(batch, SimTime{5.0});
    ASSERT_FALSE(batch.prefills.empty());
    EXPECT_EQ(batch.prefills[0].request, urgent);
}

TEST_F(DpSchedulerTest, BudgetRespected)
{
    DpScheduler sched = makeSched();
    for (int i = 0; i < 6; ++i)
        sched.enqueue(fx_.makeRequest(i, SimTime{0.0}, 1000, 3, 0), SimTime{0.0});
    Batch batch;
    sched.formBatchInto(batch, SimTime{0.0});
    EXPECT_LE(batch.prefillTokens(), DpScheduler::kChunkTokens);
    EXPECT_GT(batch.prefillTokens(), 0);
}

TEST_F(DpSchedulerTest, DpCostGrowsLinearlyWithQueueDepth)
{
    // The complexity contrast of §4.5.3: per-iteration DP cells are
    // proportional to queue length; QoServe's walk is not.
    auto cells_for = [&](int n) {
        SchedEnvFixture fx;
        DpScheduler sched(fx.env);
        for (int i = 0; i < n; ++i)
            sched.enqueue(fx.makeRequest(i, SimTime{0.0}, 2000, 3, i % 3), SimTime{0.0});
        Batch batch;
        sched.formBatchInto(batch, SimTime{0.0});
        return sched.dpCellsEvaluated();
    };

    std::uint64_t c100 = cells_for(100);
    std::uint64_t c400 = cells_for(400);
    EXPECT_NEAR(static_cast<double>(c400) / c100, 4.0, 0.5);
}

} // namespace
} // namespace qoserve
