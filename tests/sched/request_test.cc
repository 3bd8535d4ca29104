/**
 * @file
 * Unit tests for the request state machine.
 */

#include "sched/request.hh"

#include <gtest/gtest.h>

namespace qoserve {
namespace {

RequestSpec
spec(std::uint64_t id, SimTime arrival, int prompt, int decode, int tier)
{
    RequestSpec s;
    s.id = id;
    s.arrival = SimTime{arrival};
    s.promptTokens = prompt;
    s.decodeTokens = decode;
    s.tierId = tier;
    return s;
}

QosTier
interactive()
{
    return interactiveTier(0, "Q1", 6.0, 0.05);
}

QosTier
batch()
{
    return batchTier(1, "Q2", 600.0);
}

TEST(Request, InitialState)
{
    Request r(spec(1, SimTime{10.0}, 100, 5, 0), interactive(), {});
    EXPECT_EQ(r.phase(), RequestPhase::WaitingPrefill);
    EXPECT_EQ(r.prefillDone(), 0);
    EXPECT_EQ(r.prefillRemaining(), 100);
    EXPECT_EQ(r.decodeDone(), 0);
    EXPECT_EQ(r.decodeRemaining(), 5);
    EXPECT_EQ(r.contextLength(), 0);
    EXPECT_FALSE(r.relegated());
}

TEST(Request, PrefillProgressAndPhaseTransitions)
{
    Request r(spec(1, SimTime{0.0}, 100, 3, 0), interactive(), {});
    r.applyPrefill(TokenCount{40}, SimTime{0.1});
    EXPECT_EQ(r.phase(), RequestPhase::Prefilling);
    EXPECT_EQ(r.prefillDone(), 40);
    EXPECT_EQ(r.contextLength(), 40);

    r.applyPrefill(TokenCount{60}, SimTime{0.2});
    EXPECT_EQ(r.phase(), RequestPhase::Decoding);
    // First token emitted by the iteration completing the prefill.
    EXPECT_EQ(r.decodeDone(), 1);
    EXPECT_DOUBLE_EQ(r.record().firstTokenTime.seconds(), 0.2);
}

TEST(Request, SingleTokenRequestFinishesAtPrefill)
{
    Request r(spec(1, SimTime{0.0}, 50, 1, 0), interactive(), {});
    r.applyPrefill(TokenCount{50}, SimTime{0.3});
    EXPECT_EQ(r.phase(), RequestPhase::Finished);
    EXPECT_DOUBLE_EQ(r.record().finishTime.seconds(), 0.3);
    EXPECT_DOUBLE_EQ(r.record().ttft(), 0.3);
    EXPECT_DOUBLE_EQ(r.record().ttlt(), 0.3);
}

TEST(Request, DecodeTokensCompleteRequest)
{
    Request r(spec(1, SimTime{0.0}, 10, 3, 0), interactive(), {});
    r.applyPrefill(TokenCount{10}, SimTime{0.1});
    EXPECT_EQ(r.phase(), RequestPhase::Decoding);
    r.applyDecodeToken(SimTime{0.15});
    EXPECT_EQ(r.phase(), RequestPhase::Decoding);
    r.applyDecodeToken(SimTime{0.2});
    EXPECT_EQ(r.phase(), RequestPhase::Finished);
    EXPECT_DOUBLE_EQ(r.record().finishTime.seconds(), 0.2);
    EXPECT_EQ(r.decodeRemaining(), 0);
}

TEST(Request, MaxTbtTracksLargestGap)
{
    Request r(spec(1, SimTime{0.0}, 10, 4, 0), interactive(), {});
    r.applyPrefill(TokenCount{10}, SimTime{0.1});
    r.applyDecodeToken(SimTime{0.15}); // gap 0.05
    r.applyDecodeToken(SimTime{0.35}); // gap 0.20
    r.applyDecodeToken(SimTime{0.40}); // gap 0.05
    EXPECT_DOUBLE_EQ(r.record().maxTbt, 0.20);
}

TEST(Request, TbtDeadlineMissesCounted)
{
    // TTFT SLO 6 s, TBT 50 ms; token n deadline = 6 + (n-1)*0.05.
    Request r(spec(1, SimTime{0.0}, 10, 3, 0), interactive(), {});
    r.applyPrefill(TokenCount{10}, SimTime{1.0});     // token 1 on time (deadline 6.0)
    r.applyDecodeToken(SimTime{6.2});     // token 2 late (deadline 6.05)
    r.applyDecodeToken(SimTime{6.25});    // token 3 late  (deadline 6.10)
    EXPECT_EQ(r.record().tbtDeadlineMisses, 2);
}

TEST(Request, DeadlinesFollowEquations)
{
    Request r(spec(1, SimTime{100.0}, 10, 50, 0), interactive(), {});
    EXPECT_DOUBLE_EQ(r.firstTokenDeadline().seconds(), 106.0);
    EXPECT_DOUBLE_EQ(r.nextTokenDeadline().seconds(), 106.0); // next token is #1
    EXPECT_DOUBLE_EQ(r.completionDeadline().seconds(), 106.0 + 49 * 0.05);
    EXPECT_DOUBLE_EQ(r.urgencyDeadline().seconds(), 106.0);

    r.applyPrefill(TokenCount{10}, SimTime{101.0});
    // Next token is #2.
    EXPECT_DOUBLE_EQ(r.nextTokenDeadline().seconds(), 106.05);
}

TEST(Request, BatchTierDeadlines)
{
    Request r(spec(1, SimTime{100.0}, 10, 50, 1), batch(), {});
    EXPECT_DOUBLE_EQ(r.firstTokenDeadline().seconds(), 700.0);
    EXPECT_EQ(r.nextTokenDeadline(), kTimeNever);
    EXPECT_DOUBLE_EQ(r.completionDeadline().seconds(), 700.0);
    EXPECT_DOUBLE_EQ(r.urgencyDeadline().seconds(), 700.0);
}

TEST(Request, RelegationRecorded)
{
    Request r(spec(1, SimTime{0.0}, 10, 2, 0), interactive(), {});
    EXPECT_FALSE(r.record().wasRelegated);
    r.setRelegated(true);
    EXPECT_TRUE(r.relegated());
    r.setRelegated(false);
    EXPECT_FALSE(r.relegated());
    // The record remembers that relegation happened at least once.
    EXPECT_TRUE(r.record().wasRelegated);
}

TEST(Request, ConservativeDecodeUsesAppStats)
{
    AppStats stats;
    stats.meanDecode = 100.0;
    stats.stddevDecode = 25.0;
    Request r(spec(1, SimTime{0.0}, 10, 400, 1), batch(), stats);
    EXPECT_DOUBLE_EQ(r.conservativeDecodeTokens(), 150.0);
}

TEST(Request, ConservativeDecodeFallsBackToOwnLength)
{
    Request r(spec(1, SimTime{0.0}, 10, 400, 1), batch(), {});
    EXPECT_DOUBLE_EQ(r.conservativeDecodeTokens(), 400.0);
}

TEST(Request, KvPreemptionResetsProgress)
{
    Request r(spec(1, SimTime{0.0}, 100, 5, 0), interactive(), {});
    r.applyPrefill(TokenCount{60}, SimTime{0.1});
    r.resetAfterKvPreemption();
    EXPECT_EQ(r.phase(), RequestPhase::WaitingPrefill);
    EXPECT_EQ(r.prefillDone(), 0);
    EXPECT_EQ(r.decodeDone(), 0);
    EXPECT_EQ(r.record().kvPreemptions, 1);
    EXPECT_EQ(r.record().firstTokenTime, kTimeNever);

    // The request can run again to completion afterwards.
    r.applyPrefill(TokenCount{100}, SimTime{0.5});
    EXPECT_EQ(r.phase(), RequestPhase::Decoding);
}

TEST(Request, KvPreemptionDropsMissesOfTokensDecodedAgain)
{
    // TTFT SLO 6 s, TBT 50 ms: every token below is late.
    const int decode = 4;
    Request r(spec(1, SimTime{0.0}, 10, decode, 0), interactive(), {});
    r.applyPrefill(TokenCount{10}, SimTime{7.0});
    r.applyDecodeToken(SimTime{7.1});
    r.applyDecodeToken(SimTime{7.2});
    EXPECT_EQ(r.record().tbtDeadlineMisses, 3);

    // Recompute re-emits tokens 1..3; their misses count once.
    r.resetAfterKvPreemption();
    EXPECT_EQ(r.record().tbtDeadlineMisses, 0);
    r.applyPrefill(TokenCount{10}, SimTime{8.0});
    for (int t = 1; t < decode; ++t)
        r.applyDecodeToken(SimTime{8.0 + 0.1 * t});
    ASSERT_EQ(r.phase(), RequestPhase::Finished);
    EXPECT_EQ(r.record().tbtDeadlineMisses, decode);
    EXPECT_LE(r.record().tbtDeadlineMisses, r.spec().decodeTokens);
}

TEST(Request, KvPreemptionAfterRetryKeepsTheSnapshotMisses)
{
    const int decode = 5;
    RequestFailureSnapshot snap;
    snap.spec = spec(1, SimTime{0.0}, 10, decode, 0);
    snap.decodeDone = 2;
    snap.firstTokenTime = SimTime{5.0};
    snap.lastTokenTime = SimTime{6.1};
    snap.tbtDeadlineMisses = 1;
    Request r(snap.spec, interactive(), {});
    r.restoreForRetry(snap);

    // Prefill rebuilds the prompt plus two tokens, then emits token 3.
    r.applyPrefill(TokenCount{12}, SimTime{9.0});
    EXPECT_EQ(r.record().tbtDeadlineMisses, 2);
    r.resetAfterKvPreemption();
    EXPECT_EQ(r.decodeDone(), 2);
    EXPECT_EQ(r.record().tbtDeadlineMisses, 1);

    r.applyPrefill(TokenCount{12}, SimTime{10.0});
    r.applyDecodeToken(SimTime{10.1});
    r.applyDecodeToken(SimTime{10.2});
    ASSERT_EQ(r.phase(), RequestPhase::Finished);
    // The delivered miss plus tokens 3..5, each counted once.
    EXPECT_EQ(r.record().tbtDeadlineMisses, 4);
}

TEST(Request, FreshSnapshotRestoresAFreshRequest)
{
    // A request that bounces on its first dispatch retries from a
    // snapshot of its spec alone; restoring that must leave exactly
    // a fresh request, so both run the same lifecycle to the same
    // record.
    const RequestSpec s = spec(4, SimTime{1.0}, 100, 3, 0);
    Request fresh(s, interactive(), {});
    Request restored(s, interactive(), {});
    restored.restoreForRetry(RequestFailureSnapshot{s});
    EXPECT_EQ(restored.decodeProgress(), fresh.decodeProgress());
    for (Request *r : {&fresh, &restored}) {
        EXPECT_EQ(r->prefillRemaining(), 100);
        r->applyPrefill(TokenCount{100}, SimTime{2.0});
        r->applyDecodeToken(SimTime{2.2});
        r->applyDecodeToken(SimTime{2.3});
        EXPECT_EQ(r->phase(), RequestPhase::Finished);
    }
    RequestRecord a = fresh.takeRecord();
    RequestRecord b = restored.takeRecord();
    EXPECT_EQ(a.firstTokenTime, b.firstTokenTime);
    EXPECT_EQ(a.finishTime, b.finishTime);
    EXPECT_EQ(a.maxTbt, b.maxTbt);
    EXPECT_EQ(a.tbtDeadlineMisses, b.tbtDeadlineMisses);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_FALSE(b.retryExhausted);
}

TEST(Request, OverfillPanics)
{
    Request r(spec(1, SimTime{0.0}, 100, 5, 0), interactive(), {});
    EXPECT_DEATH(r.applyPrefill(TokenCount{101}, SimTime{0.1}), "invalid prefill chunk");
}

TEST(Request, DecodeInWrongPhasePanics)
{
    Request r(spec(1, SimTime{0.0}, 100, 5, 0), interactive(), {});
    EXPECT_DEATH(r.applyDecodeToken(SimTime{0.1}), "wrong phase");
}

} // namespace
} // namespace qoserve
