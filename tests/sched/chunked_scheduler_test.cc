/**
 * @file
 * Tests for the queue and batch machinery of the Scheduler class,
 * exercised via the FCFS policy (the thinnest subclass).
 */

#include "sched/baseline_schedulers.hh"

#include <gtest/gtest.h>

#include "sched_test_util.hh"

namespace qoserve {
namespace {

using test::SchedEnvFixture;
using test::runIteration;

class ChunkedSchedulerTest : public ::testing::Test
{
  protected:
    SchedEnvFixture fx_;
};

TEST_F(ChunkedSchedulerTest, EmptySchedulerHasNoWork)
{
    FcfsScheduler sched(fx_.env);
    EXPECT_FALSE(sched.hasWork());
    Batch batch;
    sched.formBatchInto(batch, SimTime{0.0});
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(sched.prefillQueueSize(), 0u);
    EXPECT_EQ(sched.decodeQueueSize(), 0u);
}

TEST_F(ChunkedSchedulerTest, ChunkBudgetLimitsPrefillTokens)
{
    FcfsScheduler sched(fx_.env);
    sched.enqueue(fx_.makeRequest(1, SimTime{0.0}, 1000, 5, 0), SimTime{0.0});

    Batch batch;
    sched.formBatchInto(batch, SimTime{0.0});
    ASSERT_EQ(batch.prefills.size(), 1u);
    EXPECT_EQ(batch.prefills[0].chunkTokens, 256);
    EXPECT_EQ(batch.prefillTokens(), 256);
}

TEST_F(ChunkedSchedulerTest, BudgetSpansMultipleRequests)
{
    FcfsScheduler sched(fx_.env);
    sched.enqueue(fx_.makeRequest(1, SimTime{0.0}, 100, 5, 0), SimTime{0.0});
    sched.enqueue(fx_.makeRequest(2, SimTime{0.1}, 100, 5, 0), SimTime{0.1});
    sched.enqueue(fx_.makeRequest(3, SimTime{0.2}, 500, 5, 0), SimTime{0.2});

    Batch batch;
    sched.formBatchInto(batch, SimTime{0.3});
    ASSERT_EQ(batch.prefills.size(), 3u);
    EXPECT_EQ(batch.prefills[0].chunkTokens, 100);
    EXPECT_EQ(batch.prefills[1].chunkTokens, 100);
    EXPECT_EQ(batch.prefills[2].chunkTokens, 56);
    EXPECT_EQ(batch.prefillTokens(), 256);
}

TEST_F(ChunkedSchedulerTest, PrefillCompletionMovesToDecode)
{
    FcfsScheduler sched(fx_.env);
    Request *req = fx_.makeRequest(1, SimTime{0.0}, 200, 5, 0);
    sched.enqueue(req, SimTime{0.0});

    SimTime now;
    runIteration(sched, fx_.perf, now);
    EXPECT_EQ(req->phase(), RequestPhase::Decoding);
    EXPECT_EQ(sched.prefillQueueSize(), 0u);
    EXPECT_EQ(sched.decodeQueueSize(), 1u);
}

TEST_F(ChunkedSchedulerTest, RequestRunsToCompletion)
{
    FcfsScheduler sched(fx_.env);
    Request *done = nullptr;
    sched.setCompletionHandler([&](Request *r) { done = r; });

    Request *req = fx_.makeRequest(1, SimTime{0.0}, 600, 4, 0);
    sched.enqueue(req, SimTime{0.0});

    SimTime now;
    int guard = 0;
    while (sched.hasWork() && ++guard < 100)
        runIteration(sched, fx_.perf, now);

    ASSERT_EQ(done, req);
    EXPECT_EQ(req->phase(), RequestPhase::Finished);
    // 600 tokens at chunk 256 = 3 prefill iterations, then 3 decode
    // iterations for tokens 2-4.
    EXPECT_EQ(guard, 6);
    // KV released at completion.
    EXPECT_EQ(fx_.kv.usedBlocks(), 0);
}

TEST_F(ChunkedSchedulerTest, DecodesAllRunEveryIteration)
{
    FcfsScheduler sched(fx_.env);
    for (int i = 0; i < 3; ++i)
        sched.enqueue(fx_.makeRequest(i, SimTime{0.0}, 50, 10, 0), SimTime{0.0});

    SimTime now;
    runIteration(sched, fx_.perf, now); // all prefills fit one chunk
    EXPECT_EQ(sched.decodeQueueSize(), 3u);

    Batch batch;
    sched.formBatchInto(batch, now);
    EXPECT_EQ(batch.numDecodes, 3);
    EXPECT_TRUE(batch.prefills.empty());
}

TEST_F(ChunkedSchedulerTest, KvGrowsWithProgressAndReleasesAtEnd)
{
    FcfsScheduler sched(fx_.env);
    Request *req = fx_.makeRequest(1, SimTime{0.0}, 256, 8, 0);
    sched.enqueue(req, SimTime{0.0});

    SimTime now;
    runIteration(sched, fx_.perf, now);
    ASSERT_TRUE(req->kvSlot().valid());
    EXPECT_EQ(fx_.kv.ownerOf(req->kvSlot()), 1u);
    EXPECT_EQ(fx_.kv.ownedTokens(req->kvSlot()), 256);

    runIteration(sched, fx_.perf, now); // decode token 2
    EXPECT_EQ(fx_.kv.ownedTokens(req->kvSlot()), 257);

    KvSlot slot = req->kvSlot();
    while (sched.hasWork())
        runIteration(sched, fx_.perf, now);
    EXPECT_FALSE(req->kvSlot().valid());
    EXPECT_FALSE(fx_.kv.owns(slot));
    EXPECT_EQ(fx_.kv.usedBlocks(), 0);
}

TEST_F(ChunkedSchedulerTest, DecodeBatchCapHoldsBackFinalChunk)
{
    // One more short prompt than the decode cap admits, all in one
    // chunk budget.
    constexpr int kCap = ChunkedSchedulerConfig::kMaxDecodeBatch;
    ChunkedSchedulerConfig cfg;
    cfg.fixedChunkTokens = 512;
    FcfsScheduler sched(fx_.env, cfg);

    for (int i = 0; i <= kCap; ++i)
        sched.enqueue(fx_.makeRequest(i, SimTime{0.0}, 2, 10, 0), SimTime{0.0});

    SimTime now;
    Batch batch;
    sched.formBatchInto(batch, now);
    // The request past the cap cannot complete its prefill: it is
    // scheduled for all but one token.
    ASSERT_EQ(batch.prefills.size(), static_cast<std::size_t>(kCap + 1));
    for (int i = 0; i < kCap; ++i)
        EXPECT_EQ(batch.prefills[i].chunkTokens, 2) << "request " << i;
    EXPECT_EQ(batch.prefills[kCap].chunkTokens, 1);

    now += fx_.perf.iterationTime(batch.work());
    sched.onBatchComplete(batch, now);
    EXPECT_EQ(sched.decodeQueueSize(), static_cast<std::size_t>(kCap));
    EXPECT_EQ(sched.prefillQueueSize(), 1u);
}

TEST_F(ChunkedSchedulerTest, StatsAccumulate)
{
    FcfsScheduler sched(fx_.env);
    sched.enqueue(fx_.makeRequest(1, SimTime{0.0}, 512, 3, 0), SimTime{0.0});

    SimTime now;
    while (sched.hasWork())
        runIteration(sched, fx_.perf, now);

    const SchedulerStats &stats = sched.stats();
    EXPECT_EQ(stats.prefillTokensScheduled, 512u);
    EXPECT_GE(stats.batchesFormed, 3u);
    EXPECT_GT(stats.averageChunkTokens(), 0.0);
    EXPECT_EQ(stats.relegations, 0u);
}

TEST_F(ChunkedSchedulerTest, PendingPrefillTokensTracked)
{
    FcfsScheduler sched(fx_.env);
    sched.enqueue(fx_.makeRequest(1, SimTime{0.0}, 300, 3, 0), SimTime{0.0});
    sched.enqueue(fx_.makeRequest(2, SimTime{0.0}, 200, 3, 0), SimTime{0.0});
    EXPECT_EQ(sched.pendingPrefillTokens(), 500);

    SimTime now;
    runIteration(sched, fx_.perf, now); // 256 tokens processed
    EXPECT_EQ(sched.pendingPrefillTokens(), 244);
}

TEST_F(ChunkedSchedulerTest, KvExhaustionPreemptsPartialPrefill)
{
    // Tiny KV cache: force the allocator to run out while a decode
    // grows, with a partially-prefilled victim available.
    BlockManager tiny_kv(TokenCount{640}, TokenCount{16}); // 40 blocks = 640 tokens
    SchedulerEnv env = fx_.env;
    env.kv = &tiny_kv;
    FcfsScheduler sched(env);

    // First request prefills fully (256 tokens) and decodes long;
    // its peak context (456 tokens = 29 blocks) fits alone.
    Request *a = fx_.makeRequest(1, SimTime{0.0}, 256, 200, 0);
    sched.enqueue(a, SimTime{0.0});
    SimTime now;
    runIteration(sched, fx_.perf, now);
    ASSERT_EQ(a->phase(), RequestPhase::Decoding);

    // Second request peaks at 32 blocks; the combined peak (61
    // blocks) exceeds the 40-block cache, so decode growth must
    // eventually evict b's already-computed KV while a (the older
    // decode) is never the victim.
    Request *b = fx_.makeRequest(2, now, 300, 200, 0);
    sched.enqueue(b, now);

    int guard = 0;
    while (sched.hasWork() && ++guard < 3000)
        runIteration(sched, fx_.perf, now);

    // The system made progress without panicking; the partially
    // prefilled request was recomputed, the decoding one untouched.
    EXPECT_LT(guard, 3000);
    EXPECT_GE(sched.stats().kvPreemptions, 1u);
    EXPECT_GE(b->record().kvPreemptions, 1);
    EXPECT_EQ(a->record().kvPreemptions, 0);
    EXPECT_EQ(a->phase(), RequestPhase::Finished);
    EXPECT_EQ(b->phase(), RequestPhase::Finished);
}

} // namespace
} // namespace qoserve
