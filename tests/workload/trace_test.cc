/**
 * @file
 * Tests for trace synthesis.
 */

#include "workload/trace.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace qoserve {
namespace {

TEST(TraceBuilder, BuildByDurationCoversWindow)
{
    Trace trace = TraceBuilder().seed(1).build(PoissonArrivals(5.0), 600.0);
    EXPECT_NEAR(static_cast<double>(trace.requests.size()), 3000.0, 300.0);
    for (const auto &r : trace.requests)
        EXPECT_LE(r.arrival, SimTime{600.0});
}

TEST(TraceBuilder, BuildCountProducesExactCount)
{
    Trace trace =
        TraceBuilder().seed(2).buildCount(PoissonArrivals(5.0), 1234);
    EXPECT_EQ(trace.requests.size(), 1234u);
}

TEST(TraceBuilder, ArrivalsSortedAndIdsDense)
{
    Trace trace =
        TraceBuilder().seed(3).buildCount(PoissonArrivals(10.0), 2000);
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
        EXPECT_EQ(trace.requests[i].id, i);
        if (i > 0) {
            EXPECT_GE(trace.requests[i].arrival,
                      trace.requests[i - 1].arrival);
        }
    }
}

TEST(TraceBuilder, DefaultTierMixIsEqualSplit)
{
    Trace trace =
        TraceBuilder().seed(4).buildCount(PoissonArrivals(10.0), 30000);
    std::vector<int> counts(3, 0);
    for (const auto &r : trace.requests)
        ++counts[r.tierId];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 400);
}

TEST(TraceBuilder, SkewedTierMixRespected)
{
    Trace trace = TraceBuilder()
                      .seed(5)
                      .tierMix({0.7, 0.15, 0.15})
                      .buildCount(PoissonArrivals(10.0), 20000);
    std::vector<int> counts(3, 0);
    for (const auto &r : trace.requests)
        ++counts[r.tierId];
    EXPECT_NEAR(counts[0], 14000, 400);
    EXPECT_NEAR(counts[1], 3000, 250);
    EXPECT_NEAR(counts[2], 3000, 250);
}

TEST(TraceBuilder, NegativeTierMixEntryIsFatal)
{
    // {1, -1, 1} sums to 1; without the sign check every draw would
    // land on tier 0 and the run would look valid.
    EXPECT_DEATH(TraceBuilder()
                     .seed(5)
                     .tierMix({1.0, -1.0, 1.0})
                     .buildCount(PoissonArrivals(10.0), 10),
                 "tier mix entries must be non-negative");
}

TEST(TraceBuilder, LowPriorityFractionTagsRequests)
{
    Trace trace = TraceBuilder()
                      .seed(6)
                      .lowPriorityFraction(0.2)
                      .buildCount(PoissonArrivals(10.0), 20000);
    int low = 0;
    for (const auto &r : trace.requests)
        low += !r.important;
    EXPECT_NEAR(low / 20000.0, 0.2, 0.015);
}

TEST(TraceBuilder, DefaultIsAllImportant)
{
    Trace trace =
        TraceBuilder().seed(7).buildCount(PoissonArrivals(10.0), 1000);
    for (const auto &r : trace.requests)
        EXPECT_TRUE(r.important);
}

TEST(TraceBuilder, DeterministicForSameSeed)
{
    Trace a = TraceBuilder().seed(8).buildCount(PoissonArrivals(5.0), 500);
    Trace b = TraceBuilder().seed(8).buildCount(PoissonArrivals(5.0), 500);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival);
        EXPECT_EQ(a.requests[i].promptTokens, b.requests[i].promptTokens);
        EXPECT_EQ(a.requests[i].decodeTokens, b.requests[i].decodeTokens);
        EXPECT_EQ(a.requests[i].tierId, b.requests[i].tierId);
    }
}

TEST(TraceBuilder, DifferentSeedsDiffer)
{
    Trace a = TraceBuilder().seed(9).buildCount(PoissonArrivals(5.0), 100);
    Trace b = TraceBuilder().seed(10).buildCount(PoissonArrivals(5.0), 100);
    int same = 0;
    for (std::size_t i = 0; i < 100; ++i)
        same += a.requests[i].promptTokens == b.requests[i].promptTokens;
    EXPECT_LT(same, 10);
}

TEST(TraceBuilder, AppIdTracksTier)
{
    Trace trace =
        TraceBuilder().seed(11).buildCount(PoissonArrivals(5.0), 1000);
    for (const auto &r : trace.requests)
        EXPECT_EQ(r.appId, r.tierId);
}

TEST(TraceBuilder, AppStatsReflectDecodeDistribution)
{
    Trace trace = TraceBuilder()
                      .seed(12)
                      .dataset(azureCode())
                      .buildCount(PoissonArrivals(5.0), 30000);
    ASSERT_EQ(trace.appStats.size(), 3u);
    for (const auto &stats : trace.appStats) {
        // Az-Code decodes: p50 = 8; the mean of the fitted lognormal
        // is ~19. The conservative estimate must over-approximate.
        EXPECT_GT(stats.meanDecode, 5.0);
        EXPECT_LT(stats.meanDecode, 50.0);
        EXPECT_GT(stats.conservativeDecodeTokens(), stats.meanDecode);
    }
}

TEST(TraceBuilder, SharedPrefixSegmentsSumToPromptTokens)
{
    SharedPrefixConfig sp;
    sp.shareRatio = 0.6;
    Trace trace = TraceBuilder()
                      .seed(13)
                      .sharedPrefix(sp)
                      .buildCount(PoissonArrivals(5.0), 4000);
    int shared = 0;
    for (const auto &r : trace.requests) {
        if (r.promptSegments.empty())
            continue;
        ++shared;
        std::int64_t sum = 0;
        for (const auto &s : r.promptSegments) {
            EXPECT_GT(s.tokens, 0);
            sum += s.tokens;
        }
        EXPECT_EQ(sum, r.promptTokens);
    }
    EXPECT_NEAR(shared / 4000.0, 0.6, 0.03);
}

TEST(TraceBuilder, SharedPrefixDrawsSystemPromptsFromPool)
{
    SharedPrefixConfig sp;
    sp.shareRatio = 0.5;
    sp.numPools = 4;
    sp.multiTurnFrac = 0.0; // Fresh conversations only.
    Trace trace = TraceBuilder()
                      .seed(14)
                      .sharedPrefix(sp)
                      .buildCount(PoissonArrivals(5.0), 2000);
    // Every shared request opens on one of numPools system prompts:
    // segment 0 repeats across requests, so at most 4 distinct
    // (contentId, tokens) pairs appear in the lead position.
    std::vector<std::uint64_t> leads;
    for (const auto &r : trace.requests) {
        if (r.promptSegments.empty())
            continue;
        ASSERT_EQ(r.promptSegments.size(), 2u);
        std::uint64_t lead = r.promptSegments[0].contentId;
        bool seen = false;
        for (std::uint64_t l : leads)
            seen = seen || l == lead;
        if (!seen)
            leads.push_back(lead);
    }
    EXPECT_GT(leads.size(), 1u);
    EXPECT_LE(leads.size(), 4u);
}

TEST(TraceBuilder, SystemPromptsSpanThePoolTokenRange)
{
    // One system prompt per request: each pool's length is one draw
    // from [kPoolTokensLo, poolTokensHi], both ends inclusive.
    SharedPrefixConfig sp;
    sp.shareRatio = 1.0;
    sp.numPools = 200;
    sp.multiTurnFrac = 0.0;
    Trace trace = TraceBuilder()
                      .seed(15)
                      .sharedPrefix(sp)
                      .buildCount(PoissonArrivals(5.0), 2000);
    int lo = std::numeric_limits<int>::max();
    int hi = 0;
    for (const auto &r : trace.requests) {
        ASSERT_EQ(r.promptSegments.size(), 2u);
        lo = std::min(lo, r.promptSegments[0].tokens);
        hi = std::max(hi, r.promptSegments[0].tokens);
    }
    EXPECT_GE(lo, SharedPrefixConfig::kPoolTokensLo);
    EXPECT_LE(hi, sp.poolTokensHi);
    EXPECT_EQ(sp.poolTokensHi, 1024);
    // 200 uniform draws reach within 5% of either end of the range.
    EXPECT_LT(lo, 128 + 45);
    EXPECT_GT(hi, 1024 - 45);
}

TEST(TraceBuilder, MultiTurnContinuationExtendsAnEarlierPrompt)
{
    SharedPrefixConfig sp;
    sp.shareRatio = 0.7;
    sp.numPools = 2;
    sp.multiTurnFrac = 0.8;
    Trace trace = TraceBuilder()
                      .seed(15)
                      .sharedPrefix(sp)
                      .buildCount(PoissonArrivals(5.0), 1500);

    // A continuation re-sends the whole parent conversation: its
    // segment list must start with an earlier request's full segment
    // list, extended by exactly the answer and the new user turn.
    auto key = [](const std::vector<PromptSegment> &segs) {
        std::uint64_t h = segs.size();
        for (const auto &s : segs) {
            h = h * 1000003 + s.contentId;
            h = h * 1000003 + static_cast<std::uint64_t>(s.tokens);
        }
        return h;
    };
    std::vector<std::uint64_t> prior_prompts;
    int continuations = 0;
    for (const auto &r : trace.requests) {
        const auto &segs = r.promptSegments;
        if (segs.empty())
            continue;
        if (segs.size() > 2u) {
            ++continuations;
            EXPECT_EQ(segs.size() % 2, 0u);
            std::vector<PromptSegment> parent(segs.begin(),
                                              segs.end() - 2);
            std::uint64_t parent_key = key(parent);
            bool found = false;
            for (std::uint64_t k : prior_prompts)
                found = found || k == parent_key;
            EXPECT_TRUE(found)
                << "continuation without a matching parent prompt";
        }
        prior_prompts.push_back(key(segs));
    }
    EXPECT_GT(continuations, 100);
}

TEST(TraceBuilder, SharedPrefixDeterministicForSameSeed)
{
    SharedPrefixConfig sp;
    sp.shareRatio = 0.5;
    auto make = [&sp] {
        return TraceBuilder().seed(16).sharedPrefix(sp).buildCount(
            PoissonArrivals(5.0), 800);
    };
    Trace a = make();
    Trace b = make();
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const auto &ra = a.requests[i];
        const auto &rb = b.requests[i];
        EXPECT_EQ(ra.promptTokens, rb.promptTokens);
        ASSERT_EQ(ra.promptSegments.size(), rb.promptSegments.size());
        for (std::size_t s = 0; s < ra.promptSegments.size(); ++s) {
            EXPECT_EQ(ra.promptSegments[s].contentId,
                      rb.promptSegments[s].contentId);
            EXPECT_EQ(ra.promptSegments[s].tokens,
                      rb.promptSegments[s].tokens);
        }
    }
}

TEST(TraceBuilder, ZeroShareRatioMatchesPlainBuilderExactly)
{
    // shareRatio 0 must disable synthesis byte-identically: the same
    // seed with and without the (inert) config yields the same trace.
    Trace plain =
        TraceBuilder().seed(17).buildCount(PoissonArrivals(5.0), 600);
    SharedPrefixConfig sp;
    sp.shareRatio = 0.0;
    Trace gated = TraceBuilder().seed(17).sharedPrefix(sp).buildCount(
        PoissonArrivals(5.0), 600);
    ASSERT_EQ(plain.requests.size(), gated.requests.size());
    for (std::size_t i = 0; i < plain.requests.size(); ++i) {
        const auto &ra = plain.requests[i];
        const auto &rb = gated.requests[i];
        EXPECT_EQ(ra.arrival, rb.arrival);
        EXPECT_EQ(ra.promptTokens, rb.promptTokens);
        EXPECT_EQ(ra.decodeTokens, rb.decodeTokens);
        EXPECT_EQ(ra.tierId, rb.tierId);
        EXPECT_EQ(ra.important, rb.important);
        EXPECT_TRUE(rb.promptSegments.empty());
    }
}

TEST(TraceBuilder, SharedPrefixLeavesBaseStreamsUntouched)
{
    // Prefix synthesis draws from its own seed split: enabling it
    // must not perturb arrivals, decode lengths, tiers or priority,
    // and only prepends tokens to shared prompts.
    Trace plain =
        TraceBuilder().seed(18).buildCount(PoissonArrivals(5.0), 600);
    SharedPrefixConfig sp;
    sp.shareRatio = 0.5;
    Trace shared = TraceBuilder().seed(18).sharedPrefix(sp).buildCount(
        PoissonArrivals(5.0), 600);
    ASSERT_EQ(plain.requests.size(), shared.requests.size());
    for (std::size_t i = 0; i < plain.requests.size(); ++i) {
        const auto &ra = plain.requests[i];
        const auto &rb = shared.requests[i];
        EXPECT_EQ(ra.arrival, rb.arrival);
        EXPECT_EQ(ra.decodeTokens, rb.decodeTokens);
        EXPECT_EQ(ra.tierId, rb.tierId);
        EXPECT_EQ(ra.important, rb.important);
        if (rb.promptSegments.empty())
            EXPECT_EQ(ra.promptTokens, rb.promptTokens);
        else
            EXPECT_GT(rb.promptTokens, ra.promptTokens);
    }
}

TEST(SharedPrefixConfig, ValidateRejectsBadRanges)
{
    SharedPrefixConfig sp;
    sp.shareRatio = 1.5;
    EXPECT_DEATH(sp.validate(), "share ratio");
    sp.shareRatio = 0.5;
    sp.numPools = 0;
    EXPECT_DEATH(sp.validate(), "pool count");
    sp.numPools = 4;
    sp.poolTokensHi = SharedPrefixConfig::kPoolTokensLo - 1;
    EXPECT_DEATH(sp.validate(), "pool token range \\[128, 127\\]");
    sp.poolTokensHi = 512;
    sp.multiTurnFrac = -0.1;
    EXPECT_DEATH(sp.validate(), "multi-turn fraction");
    sp.multiTurnFrac = std::nan("");
    EXPECT_DEATH(sp.validate(), "multi-turn fraction");
    sp.multiTurnFrac = 0.5;
    sp.shareRatio = std::nan("");
    EXPECT_DEATH(sp.validate(), "share ratio");
}

TEST(ComputeAppStats, MeanAndStddevExact)
{
    std::vector<RequestSpec> reqs(4);
    for (auto &r : reqs)
        r.appId = 0;
    reqs[0].decodeTokens = 10;
    reqs[1].decodeTokens = 20;
    reqs[2].decodeTokens = 30;
    reqs[3].decodeTokens = 40;
    auto stats = computeAppStats(reqs);
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_DOUBLE_EQ(stats[0].meanDecode, 25.0);
    EXPECT_NEAR(stats[0].stddevDecode, 11.1803, 1e-3);
    EXPECT_NEAR(stats[0].conservativeDecodeTokens(), 47.36, 0.01);
}

TEST(ComputeAppStats, EmptyInputYieldsEmpty)
{
    EXPECT_TRUE(computeAppStats({}).empty());
}

} // namespace
} // namespace qoserve
