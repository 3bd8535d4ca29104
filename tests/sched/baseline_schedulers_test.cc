/**
 * @file
 * Tests for the baseline policies' ordering behaviour and Medha's
 * adaptive chunking.
 */

#include "sched/baseline_schedulers.hh"

#include <gtest/gtest.h>

#include "sched_test_util.hh"

namespace qoserve {
namespace {

using test::SchedEnvFixture;
using test::runIteration;

class BaselineTest : public ::testing::Test
{
  protected:
    SchedEnvFixture fx_;
};

TEST_F(BaselineTest, FcfsServesInArrivalOrder)
{
    FcfsScheduler sched(fx_.env);
    Request *late = fx_.makeRequest(1, SimTime{5.0}, 300, 2, 0);
    Request *early = fx_.makeRequest(2, SimTime{1.0}, 300, 2, 0);
    sched.enqueue(late, SimTime{5.0});
    sched.enqueue(early, SimTime{5.0});

    Batch batch;
    sched.formBatchInto(batch, SimTime{5.0});
    ASSERT_FALSE(batch.prefills.empty());
    EXPECT_EQ(batch.prefills[0].request, early);
}

TEST_F(BaselineTest, EdfServesEarliestDeadlineFirst)
{
    EdfScheduler sched(fx_.env);
    // Q3 (TTLT 1800) arrives first; Q1 (TTFT 6 s) arrives later but
    // has the much earlier deadline.
    Request *batch_req = fx_.makeRequest(1, SimTime{0.0}, 300, 2, 2);
    Request *urgent = fx_.makeRequest(2, SimTime{1.0}, 300, 2, 0);
    sched.enqueue(batch_req, SimTime{1.0});
    sched.enqueue(urgent, SimTime{1.0});

    Batch batch;
    sched.formBatchInto(batch, SimTime{1.0});
    ASSERT_FALSE(batch.prefills.empty());
    EXPECT_EQ(batch.prefills[0].request, urgent);
}

TEST_F(BaselineTest, SjfPrefersShortTotalJobs)
{
    SjfScheduler sched(fx_.env);
    Request *big = fx_.makeRequest(1, SimTime{0.0}, 4000, 100, 1);
    Request *small = fx_.makeRequest(2, SimTime{1.0}, 200, 5, 1);
    sched.enqueue(big, SimTime{1.0});
    sched.enqueue(small, SimTime{1.0});

    Batch batch;
    sched.formBatchInto(batch, SimTime{1.0});
    ASSERT_FALSE(batch.prefills.empty());
    EXPECT_EQ(batch.prefills[0].request, small);
}

TEST_F(BaselineTest, SrpfPrefersLeastRemainingPrompt)
{
    SrpfScheduler sched(fx_.env);
    Request *big = fx_.makeRequest(1, SimTime{0.0}, 4000, 2, 1);
    Request *small = fx_.makeRequest(2, SimTime{1.0}, 500, 2, 1);
    sched.enqueue(big, SimTime{1.0});
    sched.enqueue(small, SimTime{1.0});

    // Small runs first despite arriving later.
    Batch b1;
    sched.formBatchInto(b1, SimTime{1.0});
    EXPECT_EQ(b1.prefills[0].request, small);
}

TEST_F(BaselineTest, SrpfReordersAsRemainingShrinks)
{
    SrpfScheduler sched(fx_.env);
    Request *a = fx_.makeRequest(1, SimTime{0.0}, 600, 2, 1);
    sched.enqueue(a, SimTime{0.0});

    // a runs down to 600-256*2 = 88 remaining over two iterations.
    SimTime now;
    runIteration(sched, fx_.perf, now);
    runIteration(sched, fx_.perf, now);
    ASSERT_EQ(a->prefillRemaining(), 88);

    // A fresh request with 120 remaining must NOT preempt a (88 <
    // 120), even though 120 < 600.
    Request *b = fx_.makeRequest(2, now, 120, 2, 1);
    sched.enqueue(b, now);
    Batch batch;
    sched.formBatchInto(batch, now);
    EXPECT_EQ(batch.prefills[0].request, a);
}

TEST_F(BaselineTest, AllBaselinesCompleteAMixedWorkload)
{
    for (int policy = 0; policy < 4; ++policy) {
        SchedEnvFixture fx;
        std::unique_ptr<Scheduler> sched;
        switch (policy) {
          case 0:
            sched = std::make_unique<FcfsScheduler>(fx.env);
            break;
          case 1:
            sched = std::make_unique<EdfScheduler>(fx.env);
            break;
          case 2:
            sched = std::make_unique<SjfScheduler>(fx.env);
            break;
          default:
            sched = std::make_unique<SrpfScheduler>(fx.env);
            break;
        }
        int completed = 0;
        sched->setCompletionHandler([&](Request *) { ++completed; });
        for (int i = 0; i < 12; ++i) {
            sched->enqueue(
                fx.makeRequest(i, SimTime{0.0}, 200 + 137 * i, 2 + i % 5, i % 3),
                SimTime{0.0});
        }
        SimTime now;
        int guard = 0;
        while (sched->hasWork() && ++guard < 500)
            runIteration(*sched, fx.perf, now);
        EXPECT_EQ(completed, 12) << "policy " << sched->name();
    }
}

TEST_F(BaselineTest, MedhaShrinksChunkAsContextGrows)
{
    MedhaScheduler::Options opts;
    opts.tbtTarget = 0.05;
    opts.maxChunkTokens = 4096;
    MedhaScheduler sched(fx_.env, opts);

    // One very long prompt: chunk sizes should be non-increasing as
    // the quadratic attention term grows with accumulated context.
    Request *req = fx_.makeRequest(1, SimTime{0.0}, 30000, 2, 2);
    sched.enqueue(req, SimTime{0.0});

    SimTime now;
    std::vector<int> chunks;
    while (req->phase() != RequestPhase::Decoding &&
           req->phase() != RequestPhase::Finished) {
        Batch batch;
        sched.formBatchInto(batch, now);
        ASSERT_FALSE(batch.prefills.empty());
        chunks.push_back(batch.prefills[0].chunkTokens);
        now += fx_.perf.iterationTime(batch.work());
        sched.onBatchComplete(batch, now);
    }

    ASSERT_GT(chunks.size(), 3u);
    // Allow equality (step quantisation) but never growth, except
    // the final remainder chunk which may be smaller than a step.
    for (std::size_t i = 1; i + 1 < chunks.size(); ++i)
        EXPECT_LE(chunks[i], chunks[i - 1]) << "iteration " << i;
    EXPECT_LT(chunks[chunks.size() - 2], chunks.front());
}

TEST_F(BaselineTest, MedhaRespectsTbtTargetPerIteration)
{
    MedhaScheduler::Options opts;
    opts.tbtTarget = 0.05;
    MedhaScheduler sched(fx_.env, opts);

    Request *req = fx_.makeRequest(1, SimTime{0.0}, 20000, 2, 2);
    sched.enqueue(req, SimTime{0.0});

    SimTime now;
    while (req->prefillRemaining() > 0) {
        Batch batch;
        sched.formBatchInto(batch, now);
        double latency = fx_.perf.iterationTime(batch.work());
        // One-step quantisation can overshoot slightly; never by
        // more than the cost of one extra step.
        EXPECT_LT(latency, opts.tbtTarget * 1.3);
        now += latency;
        sched.onBatchComplete(batch, now);
    }
}

} // namespace
} // namespace qoserve
