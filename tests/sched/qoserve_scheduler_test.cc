/**
 * @file
 * Tests for the QoServe scheduler: dynamic chunking, hybrid
 * prioritization, eager relegation and selective preemption.
 */

#include "sched/qoserve_scheduler.hh"

#include <gtest/gtest.h>

#include "sched_test_util.hh"

namespace qoserve {
namespace {

using test::SchedEnvFixture;
using test::runIteration;

class QoServeTest : public ::testing::Test
{
  protected:
    SchedEnvFixture fx_;
};

/** Predictor that counts its calls and reports a latency every budget
 *  fits, so one chunk-budget solve probes exactly once (the largest
 *  chunk first). */
class CountingPredictor : public LatencyPredictor
{
  public:
    SimDuration
    predict(const BatchFeatures &) const override
    {
        ++predictCalls;
        return 1e-6;
    }

    mutable int predictCalls = 0;
};

/** QoServe scheduler that counts its chunk-budget calls and shows
 *  its decode lanes (a batch's decodes are the first ones). */
class CountingQoServeScheduler : public QoServeScheduler
{
  public:
    using QoServeScheduler::QoServeScheduler;
    using QoServeScheduler::decodeLanes;

    mutable int chunkBudgetCalls = 0;

  protected:
    int
    chunkBudget(SimTime now, const Batch &batch) const override
    {
        ++chunkBudgetCalls;
        return QoServeScheduler::chunkBudget(now, batch);
    }
};

TEST_F(QoServeTest, RequiresPredictorForDynamicChunking)
{
    SchedulerEnv env = fx_.env;
    env.predictor = nullptr;
    EXPECT_DEATH({ QoServeScheduler sched(env); }, "predictor");
}

TEST_F(QoServeTest, MaxChunkBelowTheFloorIsRejected)
{
    // The floor would lift every slack-starved chunk past such a cap.
    QoServeConfig cfg;
    cfg.maxChunkTokens = QoServeConfig::kMinChunkTokens - 64;
    EXPECT_DEATH({ QoServeScheduler sched(fx_.env, cfg); },
                 "max chunk 128 below the 192-token chunk floor");
    cfg.maxChunkTokens = QoServeConfig::kMinChunkTokens;
    QoServeScheduler sched(fx_.env, cfg);
    EXPECT_EQ(sched.qosConfig().maxChunkTokens, 192);
}

TEST_F(QoServeTest, NoPredictorNeededWhenDynamicChunkingOff)
{
    SchedulerEnv env = fx_.env;
    env.predictor = nullptr;
    QoServeConfig cfg;
    cfg.enableDynamicChunking = false;
    QoServeScheduler sched(env, cfg);
    // The fixed Sarathi chunk stands in for the solve.
    sched.enqueue(fx_.makeRequest(1, SimTime{0.0}, 10000, 5, 0), SimTime{0.0});
    Batch batch;
    sched.formBatchInto(batch, SimTime{0.0});
    EXPECT_EQ(batch.prefillTokens(), ChunkedSchedulerConfig{}.fixedChunkTokens);
}

TEST_F(QoServeTest, MaxChunkWhenNoInteractiveDecodes)
{
    // With no interactive decode in flight there is no TBT
    // constraint: the chunk opens up to the throughput-optimal max.
    QoServeScheduler sched(fx_.env);
    sched.enqueue(fx_.makeRequest(1, SimTime{0.0}, 10000, 5, 2), SimTime{0.0});

    Batch batch;
    sched.formBatchInto(batch, SimTime{0.0});
    ASSERT_EQ(batch.prefills.size(), 1u);
    EXPECT_EQ(batch.prefills[0].chunkTokens,
              sched.qosConfig().maxChunkTokens);
}

TEST_F(QoServeTest, ChunkShrinksUnderTightDecodeSlack)
{
    QoServeScheduler sched(fx_.env);

    // An interactive request that spent ~5.9 s queued upstream: its
    // first token lands just before the 6 s TTFT deadline, so the
    // next-token deadline (TTFT + TBT) leaves only ~100 ms of slack.
    Request *inter = fx_.makeRequest(1, SimTime{0.0}, 100, 50, 0);
    sched.enqueue(inter, SimTime{5.9});
    SimTime now{5.9};
    runIteration(sched, fx_.perf, now);
    ASSERT_EQ(inter->phase(), RequestPhase::Decoding);
    double slack = inter->nextTokenDeadline() - now;
    ASSERT_GT(slack, 0.0);
    ASSERT_LT(slack, 0.2);

    // A long batch prefill arrives; the chunk must fit that slack —
    // far below the time a 2560-token chunk needs.
    sched.enqueue(fx_.makeRequest(2, now, 10000, 5, 2), now);
    Batch batch;
    sched.formBatchInto(batch, now);
    ASSERT_FALSE(batch.prefills.empty());
    int chunk = batch.prefillTokens();
    EXPECT_GT(chunk, 0);
    EXPECT_LT(chunk, sched.qosConfig().maxChunkTokens);

    // And the iteration must actually meet the slack.
    double latency = fx_.perf.iterationTime(batch.work());
    EXPECT_LE(now + latency, inter->nextTokenDeadline() + 0.005);
}

TEST_F(QoServeTest, SlackAccumulationOpensChunkBackUp)
{
    // An interactive decode that is *ahead* of its token schedule has
    // slack; QoServe exploits it with a larger chunk (Fig. 6).
    QoServeScheduler sched(fx_.env);
    Request *inter = fx_.makeRequest(1, SimTime{0.0}, 100, 50, 0);
    sched.enqueue(inter, SimTime{0.0});
    SimTime now;
    runIteration(sched, fx_.perf, now);

    // First token arrived at ~40 ms; deadline for token 2 is
    // 6.05 s: nearly 6 s of slack. A big chunk is admissible.
    sched.enqueue(fx_.makeRequest(2, now, 10000, 5, 2), now);
    Batch batch;
    sched.formBatchInto(batch, now);
    EXPECT_EQ(batch.prefillTokens(), sched.qosConfig().maxChunkTokens);
}

TEST_F(QoServeTest, HybridPriorityInterpolatesEdfAndSrpf)
{
    QoServeConfig cfg;
    cfg.alphaMsPerToken = 8.0;
    QoServeScheduler sched(fx_.env, cfg);

    // Two non-interactive requests, same tier: one early-arriving
    // long job, one late-arriving short job. With alpha=8 ms/token,
    // 4000 extra tokens cost 32 s of priority — more than the 10 s
    // arrival gap, so the short job wins (SRPF semantics).
    Request *long_early = fx_.makeRequest(1, SimTime{0.0}, 5000, 10, 1);
    Request *short_late = fx_.makeRequest(2, SimTime{10.0}, 500, 10, 1);
    sched.enqueue(long_early, SimTime{10.0});
    sched.enqueue(short_late, SimTime{10.0});

    Batch batch;
    sched.formBatchInto(batch, SimTime{10.0});
    EXPECT_EQ(batch.prefills[0].request, short_late);
}

TEST_F(QoServeTest, AlphaZeroIsPureEdf)
{
    QoServeConfig cfg;
    cfg.enableHybridPriority = false;
    QoServeScheduler sched(fx_.env, cfg);

    Request *long_early = fx_.makeRequest(1, SimTime{0.0}, 5000, 10, 1);
    Request *short_late = fx_.makeRequest(2, SimTime{10.0}, 500, 10, 1);
    sched.enqueue(long_early, SimTime{10.0});
    sched.enqueue(short_late, SimTime{10.0});

    // Pure EDF: earlier arrival = earlier TTLT deadline wins.
    Batch batch;
    sched.formBatchInto(batch, SimTime{10.0});
    EXPECT_EQ(batch.prefills[0].request, long_early);
}

TEST_F(QoServeTest, InteractiveDeadlineBeatsBatchDeadline)
{
    QoServeScheduler sched(fx_.env);
    Request *batch_req = fx_.makeRequest(1, SimTime{0.0}, 1000, 5, 2);
    Request *inter = fx_.makeRequest(2, SimTime{1.0}, 1000, 5, 0);
    sched.enqueue(batch_req, SimTime{1.0});
    sched.enqueue(inter, SimTime{1.0});

    Batch b;
    sched.formBatchInto(b, SimTime{1.0});
    EXPECT_EQ(b.prefills[0].request, inter);
}

TEST_F(QoServeTest, WillViolateDetectsHopelessInteractiveRequest)
{
    QoServeScheduler sched(fx_.env);
    Request *r = fx_.makeRequest(1, SimTime{0.0}, 2000, 5, 0);
    // TTFT deadline is 6.0; at t=5.99 even an instant prefill could
    // not finish in time.
    EXPECT_FALSE(sched.willViolate(*r, SimTime{0.0}));
    EXPECT_TRUE(sched.willViolate(*r, SimTime{5.99}));
}

TEST_F(QoServeTest, ViolatingRequestIsRelegatedNotServed)
{
    QoServeScheduler sched(fx_.env);
    Request *doomed = fx_.makeRequest(1, SimTime{0.0}, 2000, 5, 0);
    Request *fresh = fx_.makeRequest(2, SimTime{7.0}, 500, 5, 0);
    sched.enqueue(doomed, SimTime{7.0});
    sched.enqueue(fresh, SimTime{7.0});

    // At t=7 the first request already missed its 6 s TTFT deadline.
    Batch batch;
    sched.formBatchInto(batch, SimTime{7.0});
    EXPECT_TRUE(doomed->relegated());
    ASSERT_FALSE(batch.prefills.empty());
    EXPECT_EQ(batch.prefills[0].request, fresh);
    EXPECT_GE(sched.stats().relegations, 1u);
}

TEST_F(QoServeTest, RelegatedRequestServedOpportunistically)
{
    QoServeScheduler sched(fx_.env);
    Request *doomed = fx_.makeRequest(1, SimTime{0.0}, 400, 3, 0);
    sched.enqueue(doomed, SimTime{7.0});

    // Nothing else in the system: the relegated request still runs
    // (graceful degradation, not rejection).
    SimTime now{7.0};
    int guard = 0;
    while (sched.hasWork() && ++guard < 50)
        runIteration(sched, fx_.perf, now);
    EXPECT_EQ(doomed->phase(), RequestPhase::Finished);
    EXPECT_TRUE(doomed->record().wasRelegated);
}

TEST_F(QoServeTest, RelegationDisabledKeepsFifoDiscipline)
{
    QoServeConfig cfg;
    cfg.enableEagerRelegation = false;
    QoServeScheduler sched(fx_.env, cfg);
    Request *doomed = fx_.makeRequest(1, SimTime{0.0}, 2000, 5, 0);
    sched.enqueue(doomed, SimTime{7.0});
    Batch batch;
    sched.formBatchInto(batch, SimTime{7.0});
    EXPECT_FALSE(doomed->relegated());
    EXPECT_EQ(sched.stats().relegations, 0u);
}

TEST_F(QoServeTest, OverloadRelegatesLowPriorityFirst)
{
    QoServeScheduler sched(fx_.env);

    // Flood the queue far past the overload threshold (~6 s of
    // prefill backlog at ~6-9K tokens/s means > 60K pending tokens).
    SimTime now;
    std::vector<Request *> low, high;
    for (int i = 0; i < 40; ++i) {
        bool important = i % 2 == 0;
        Request *r = fx_.makeRequest(i, SimTime{0.0}, 8000, 5, 2, important);
        (important ? high : low).push_back(r);
        sched.enqueue(r, now);
    }
    ASSERT_TRUE(sched.overloaded(now));

    // Run enough iterations for the fill pass to reach low-priority
    // candidates; those get relegated while important ones do not
    // (none is projected to violate the 1800 s TTLT yet).
    for (int i = 0; i < 12; ++i)
        runIteration(sched, fx_.perf, now);

    int low_releg = 0;
    for (Request *r : low)
        low_releg += r->relegated();
    EXPECT_GT(low_releg, 0);
    for (Request *r : high)
        EXPECT_FALSE(r->relegated());
}

TEST_F(QoServeTest, SelectivePreemptionProtectsUrgentInflight)
{
    QoServeScheduler sched(fx_.env);

    // A long interactive prefill progresses until its TTFT budget is
    // nearly exhausted.
    Request *inflight = fx_.makeRequest(1, SimTime{0.0}, 4000, 5, 0);
    sched.enqueue(inflight, SimTime{0.0});
    SimTime now;
    runIteration(sched, fx_.perf, now);
    ASSERT_GT(inflight->prefillDone(), 0);

    // Jump to a moment where one more iteration of delay would make
    // the in-flight request miss its 6 s TTFT.
    now = SimTime{5.85};
    // A newly arrived strict request with an *earlier* static
    // priority would normally preempt; the urgent-inflight pass must
    // schedule the in-flight request anyway.
    Request *newcomer = fx_.makeRequest(2, SimTime{5.85}, 200, 5, 0);
    sched.enqueue(newcomer, now);

    Batch batch;
    sched.formBatchInto(batch, now);
    ASSERT_FALSE(batch.prefills.empty());
    EXPECT_EQ(batch.prefills[0].request, inflight);
}

TEST_F(QoServeTest, MixedTierWorkloadCompletesWithBoundedTbt)
{
    QoServeScheduler sched(fx_.env);
    int completed = 0;
    sched.setCompletionHandler([&](Request *) { ++completed; });

    SimTime now;
    for (int i = 0; i < 15; ++i)
        sched.enqueue(fx_.makeRequest(i, SimTime{0.0}, 300 + 211 * i, 3 + i % 7,
                                      i % 3),
                      now);

    int guard = 0;
    while (sched.hasWork() && ++guard < 1000)
        runIteration(sched, fx_.perf, now);

    EXPECT_EQ(completed, 15);
    // Dynamic chunking must have kept every interactive request's
    // TBT within its deadline schedule.
    for (const auto &req : fx_.owned) {
        if (req->tier().interactive) {
            EXPECT_EQ(req->record().tbtDeadlineMisses, 0)
                << "request " << req->id();
        }
    }
}

TEST_F(QoServeTest, AdaptiveAlphaRampsWithBacklog)
{
    QoServeConfig cfg;
    cfg.adaptiveAlpha = true;
    cfg.alphaMsPerToken = 8.0;
    ASSERT_EQ(QoServeConfig::kAlphaLowLoadMs, 1.0);
    QoServeScheduler sched(fx_.env, cfg);

    // Empty queue: alpha at the low-load value.
    EXPECT_NEAR(sched.effectiveAlpha(), 1e-3, 1e-9);

    // Flood past the overload threshold: alpha saturates high.
    for (int i = 0; i < 20; ++i)
        sched.enqueue(fx_.makeRequest(i, SimTime{0.0}, 8000, 5, 2), SimTime{0.0});
    ASSERT_TRUE(sched.overloaded(SimTime{0.0}));
    EXPECT_NEAR(sched.effectiveAlpha(), 8e-3, 1e-9);
}

TEST_F(QoServeTest, AdaptiveAlphaIntermediateLoadInterpolates)
{
    QoServeConfig cfg;
    cfg.adaptiveAlpha = true;
    QoServeScheduler sched(fx_.env, cfg);

    // A modest backlog: alpha strictly between the endpoints.
    for (int i = 0; i < 3; ++i)
        sched.enqueue(fx_.makeRequest(i, SimTime{0.0}, 4000, 5, 2), SimTime{0.0});
    double alpha = sched.effectiveAlpha();
    EXPECT_GT(alpha, 1e-3);
    EXPECT_LT(alpha, 8e-3);
}

TEST_F(QoServeTest, AdaptiveAlphaDisabledUsesConstant)
{
    QoServeConfig cfg;
    cfg.alphaMsPerToken = 5.0;
    QoServeScheduler sched(fx_.env, cfg);
    EXPECT_NEAR(sched.effectiveAlpha(), 5e-3, 1e-12);
}

TEST_F(QoServeTest, MinChunkFloorGuaranteesPrefillProgress)
{
    // An interactive decode with positive slack smaller than one
    // floor-chunk iteration: the solver cannot fit any chunk, but
    // the scheduler still advances prefill at the configured floor
    // rather than starving it (§3.5).
    QoServeScheduler sched(fx_.env);
    Request *tight = fx_.makeRequest(1, SimTime{0.0}, 100, 50, 0);
    sched.enqueue(tight, SimTime{5.9});
    SimTime now{5.9};
    runIteration(sched, fx_.perf, now);
    ASSERT_EQ(tight->phase(), RequestPhase::Decoding);

    // Jump to 20 ms before the next token deadline.
    now = tight->nextTokenDeadline() - 0.02;
    sched.enqueue(fx_.makeRequest(2, now, 10000, 5, 2), now);
    Batch batch;
    sched.formBatchInto(batch, now);
    EXPECT_EQ(batch.prefillTokens(), QoServeConfig::kMinChunkTokens);
}

TEST_F(QoServeTest, LateDecodesDoNotGateTheChunk)
{
    // A decode already past its token schedule (TTFT missed, Eq. 2
    // deadlines anchored behind) must not drag the replica to the
    // floor chunk for its whole decode: late requests are beyond
    // pacing, and viable work rides the full chunk.
    CountingQoServeScheduler sched(fx_.env);
    Request *late = fx_.makeRequest(1, SimTime{0.0}, 100, 50, 0);
    sched.enqueue(late, SimTime{7.0}); // already past its 6 s TTFT
    SimTime now{7.0};
    runIteration(sched, fx_.perf, now);
    ASSERT_EQ(late->phase(), RequestPhase::Decoding);
    ASSERT_LT(late->nextTokenDeadline(), now); // negative slack

    sched.enqueue(fx_.makeRequest(2, now, 10000, 5, 2), now);
    Batch batch;
    sched.formBatchInto(batch, now);
    EXPECT_EQ(batch.prefillTokens(),
              sched.qosConfig().maxChunkTokens);
    // The late request still decodes every iteration.
    ASSERT_EQ(batch.numDecodes, 1);
    EXPECT_EQ(sched.decodeLanes()[0].req, late);
}

TEST_F(QoServeTest, StatsCountRelegationsAcrossRun)
{
    QoServeScheduler sched(fx_.env);
    SimTime now{20.0};
    // All of these already blew their TTFT deadline at enqueue time.
    for (int i = 0; i < 5; ++i)
        sched.enqueue(fx_.makeRequest(i, SimTime{0.0}, 500, 3, 0), now);
    for (int i = 0; i < 3; ++i)
        runIteration(sched, fx_.perf, now);
    EXPECT_GE(sched.stats().relegations, 5u);
}

TEST_F(QoServeTest, DecodeOnlyIterationSkipsTheChunkBudgetSolve)
{
    CountingPredictor predictor;
    SchedulerEnv env = fx_.env;
    env.predictor = &predictor;
    CountingQoServeScheduler sched(env);

    // Four interactive prompts fit one iteration's chunk, so a single
    // iteration moves all of them to decode.
    SimTime now{0.0};
    for (int i = 0; i < 4; ++i)
        sched.enqueue(fx_.makeRequest(i, now, 64, 50, 0), now);
    runIteration(sched, fx_.perf, now);
    ASSERT_EQ(sched.decodeQueueSize(), 4u);
    ASSERT_EQ(sched.prefillQueueSize(), 0u);
    sched.chunkBudgetCalls = 0;
    predictor.predictCalls = 0;

    // Decode-only: every decode runs and no budget is solved.
    SchedulerStats before = sched.stats();
    Batch batch;
    sched.formBatchInto(batch, now);
    EXPECT_EQ(batch.numDecodes, 4);
    EXPECT_TRUE(batch.prefills.empty());
    EXPECT_EQ(sched.chunkBudgetCalls, 0);
    EXPECT_EQ(predictor.predictCalls, 0);
    EXPECT_EQ(sched.stats().batchesFormed - before.batchesFormed, 1u);
    EXPECT_EQ(sched.stats().decodeTokensScheduled -
                  before.decodeTokensScheduled,
              4u);
    EXPECT_EQ(sched.stats().prefillTokensScheduled,
              before.prefillTokensScheduled);
    now += fx_.perf.iterationTime(batch.work());
    sched.onBatchComplete(batch, now);
    ASSERT_GT(sched.decodeLanes()[0].progress.nextTokenDeadline() - now,
              0.0)
        << "the decodes must constrain the chunk for the solve to run";

    // One queued prefill: exactly one budget solve of one probe, and
    // the batch counters move as in the decode-only iteration.
    sched.enqueue(fx_.makeRequest(10, now, 1000, 5, 2), now);
    before = sched.stats();
    sched.formBatchInto(batch, now);
    EXPECT_EQ(batch.numDecodes, 4);
    ASSERT_EQ(batch.prefills.size(), 1u);
    EXPECT_EQ(sched.chunkBudgetCalls, 1);
    EXPECT_EQ(predictor.predictCalls, 1);
    EXPECT_EQ(sched.stats().batchesFormed - before.batchesFormed, 1u);
    EXPECT_EQ(sched.stats().decodeTokensScheduled -
                  before.decodeTokensScheduled,
              4u);
    EXPECT_EQ(sched.stats().prefillTokensScheduled -
                  before.prefillTokensScheduled,
              static_cast<std::uint64_t>(batch.prefillTokens()));
}

} // namespace
} // namespace qoserve
