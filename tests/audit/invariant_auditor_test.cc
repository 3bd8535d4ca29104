/**
 * @file
 * Unit tests for the invariant auditor: each invariant in the
 * catalogue (DESIGN.md §7) is tripped by a deliberately broken toy
 * fixture and must be detected, and consistent fixtures must pass.
 * Also covers the hard enforcement satellites: EventQueue timestamp
 * validation and BlockManager strict-release semantics.
 */

#include "audit/invariant_auditor.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "kvcache/block_manager.hh"
#include "model/perf_model.hh"
#include "prefixcache/prefix_cache.hh"
#include "sched/baseline_schedulers.hh"
#include "sched/request.hh"
#include "sched/scheduler.hh"
#include "simcore/event_queue.hh"
#include "workload/qos.hh"
#include "workload/trace.hh"

namespace qoserve {
namespace {

/** Auditor that records violations instead of aborting. */
InvariantAuditor
makeAuditor(audit::CheckLevel level = audit::CheckLevel::Full)
{
    InvariantAuditor::Options opts;
    opts.level = level;
    opts.failFast = false;
    return InvariantAuditor(opts);
}

/** A request fixture in the WaitingPrefill phase. */
std::unique_ptr<Request>
makeRequest(std::uint64_t id, int prompt_tokens, int decode_tokens,
            SimTime arrival = SimTime{})
{
    RequestSpec spec;
    spec.id = id;
    spec.arrival = arrival;
    spec.promptTokens = prompt_tokens;
    spec.decodeTokens = decode_tokens;
    spec.tierId = 0;
    return std::make_unique<Request>(spec, paperTierTable()[0],
                                     AppStats{});
}

/** Drive a request into the Decoding phase. */
std::unique_ptr<Request>
makeDecodingRequest(std::uint64_t id, int prompt_tokens,
                    int decode_tokens)
{
    auto req = makeRequest(id, prompt_tokens, decode_tokens);
    req->applyPrefill(TokenCount{prompt_tokens}, SimTime{1.0});
    EXPECT_EQ(req->phase(), RequestPhase::Decoding);
    return req;
}

/** A self-consistent view over the given queues. */
SchedulerAuditView
makeView(const std::vector<const Request *> &prefills,
         const std::vector<const Request *> &decodes)
{
    SchedulerAuditView view;
    view.prefills = prefills;
    view.decodes = decodes;
    view.maxDecodeBatch = 8;
    for (const Request *req : prefills)
        view.pendingPrefillTokens += req->prefillRemaining();
    return view;
}

/** The single invariant name an auditor detected, or "" / "multiple". */
std::string
soleViolation(const InvariantAuditor &auditor)
{
    if (auditor.violations().empty())
        return "";
    std::string name = auditor.violations().front().invariant;
    for (const auto &v : auditor.violations()) {
        if (v.invariant != name)
            return "multiple";
    }
    return name;
}

TEST(InvariantAuditor, ConsistentViewIsClean)
{
    auto waiting = makeRequest(1, 100, 10);
    waiting->cachedPriority = 1.0;
    auto decoding = makeDecodingRequest(2, 50, 10);
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(
        makeView({waiting.get()}, {decoding.get()}), nullptr, SimTime{1.0});
    EXPECT_TRUE(auditor.clean());
    EXPECT_EQ(auditor.violationCount(), 0u);
}

TEST(InvariantAuditor, DetectsDecodeBatchOverflow)
{
    auto a = makeDecodingRequest(1, 10, 5);
    auto b = makeDecodingRequest(2, 10, 5);
    auto view = makeView({}, {a.get(), b.get()});
    view.maxDecodeBatch = 1;
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "sched-decode-bound");
}

TEST(InvariantAuditor, DetectsNegativePendingPrefill)
{
    auto view = makeView({}, {});
    view.pendingPrefillTokens = -1;
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "sched-pending-prefill");
}

TEST(InvariantAuditor, DetectsDoubleQueuedRequest)
{
    auto req = makeRequest(7, 100, 10);
    auto view = makeView({req.get(), req.get()}, {});
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    // The duplicate also breaks strict priority ordering (equal ids
    // cannot be strictly increasing); exclusivity must be among the
    // findings.
    EXPECT_FALSE(auditor.clean());
    bool saw_exclusivity = false;
    for (const auto &v : auditor.violations())
        saw_exclusivity |= v.invariant == "sched-exclusivity";
    EXPECT_TRUE(saw_exclusivity);
}

TEST(InvariantAuditor, DetectsRequestInBothQueues)
{
    auto req = makeDecodingRequest(7, 100, 10);
    SchedulerAuditView view;
    view.prefills = {req.get()};
    view.decodes = {req.get()};
    view.maxDecodeBatch = 8;
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    // The decoding request is wrong for the prefill queue (phase) and
    // queued twice (exclusivity); both must surface.
    EXPECT_FALSE(auditor.clean());
    bool saw_exclusivity = false;
    for (const auto &v : auditor.violations())
        saw_exclusivity |= v.invariant == "sched-exclusivity";
    EXPECT_TRUE(saw_exclusivity);
}

TEST(InvariantAuditor, DetectsDecodePhaseInPrefillQueue)
{
    auto req = makeDecodingRequest(3, 100, 10);
    auto view = makeView({req.get()}, {});
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "sched-phase");
}

TEST(InvariantAuditor, DetectsPrefillPhaseInDecodeQueue)
{
    auto req = makeRequest(3, 100, 10);
    auto view = makeView({}, {req.get()});
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "sched-phase");
}

TEST(InvariantAuditor, DetectsPendingPrefillCounterDrift)
{
    auto req = makeRequest(4, 100, 10);
    auto view = makeView({req.get()}, {});
    view.pendingPrefillTokens += 13; // Simulated bookkeeping drift.
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "sched-pending-prefill");
}

TEST(InvariantAuditor, DetectsPriorityOrderViolation)
{
    auto first = makeRequest(1, 100, 10);
    auto second = makeRequest(2, 100, 10);
    first->cachedPriority = 5.0;
    second->cachedPriority = 1.0; // Lower priority key queued later.
    auto view = makeView({first.get(), second.get()}, {});
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "sched-priority-order");
}

TEST(InvariantAuditor, DetectsRelegatedAheadOfRegular)
{
    auto first = makeRequest(1, 100, 10);
    auto second = makeRequest(2, 100, 10);
    first->setRelegated(true);
    first->cachedPriority = 0.0;
    second->cachedPriority = 1.0;
    auto view = makeView({first.get(), second.get()}, {});
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "sched-priority-order");
}

TEST(InvariantAuditor, DetectsKvRequestDisagreement)
{
    auto req = makeDecodingRequest(9, 64, 8);
    BlockManager kv(TokenCount{1 << 14}, TokenCount{16});
    // Allocate the wrong number of tokens for request 9 (a decoding
    // request must own contextLength() - 1).
    req->setKvSlot(kv.open(9));
    ASSERT_TRUE(kv.grow(req->kvSlot(), TokenCount{req->contextLength() + 5}));
    auto view = makeView({}, {req.get()});
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, &kv, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-request-agreement");
}

TEST(InvariantAuditor, AgreeingKvIsClean)
{
    auto req = makeDecodingRequest(9, 64, 8);
    BlockManager kv(TokenCount{1 << 14}, TokenCount{16});
    // The newest sampled token has no KV entry yet, so a consistent
    // decoding request owns one token less than its context.
    req->setKvSlot(kv.open(9));
    ASSERT_TRUE(kv.grow(req->kvSlot(), TokenCount{req->contextLength() - 1}));
    auto view = makeView({}, {req.get()});
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(view, &kv, SimTime{0.0});
    EXPECT_TRUE(auditor.clean());
}

TEST(InvariantAuditor, DetectsStaleKvSlot)
{
    // Request 9 still carries a slot that was released and reopened
    // for request 10: without the owner check both requests would
    // read request 10's KV.
    auto stale = makeDecodingRequest(9, 64, 8);
    auto other = makeDecodingRequest(10, 64, 8);
    BlockManager kv(TokenCount{1 << 14}, TokenCount{16});
    stale->setKvSlot(kv.open(9));
    kv.release(stale->kvSlot());
    other->setKvSlot(kv.open(10));
    ASSERT_EQ(other->kvSlot(), stale->kvSlot());
    ASSERT_TRUE(kv.grow(other->kvSlot(),
                        TokenCount{other->contextLength() - 1}));
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(makeView({}, {stale.get(), other.get()}),
                               &kv, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-slot-owner");
    EXPECT_EQ(auditor.violationCount(), 1u);

    // A slot that is simply closed is caught the same way.
    auto closed = makeDecodingRequest(11, 64, 8);
    closed->setKvSlot(KvSlot{7});
    auto auditor2 = makeAuditor();
    auditor2.checkSchedulerView(makeView({}, {closed.get()}), &kv,
                                SimTime{0.0});
    EXPECT_FALSE(auditor2.clean());
    EXPECT_EQ(auditor2.violations().front().invariant, "kv-slot-owner");
}

TEST(InvariantAuditor, DetectsOpenSlotNoQueuedRequestCarries)
{
    auto req = makeDecodingRequest(9, 64, 8);
    BlockManager kv(TokenCount{1 << 14}, TokenCount{16});
    req->setKvSlot(kv.open(9));
    ASSERT_TRUE(kv.grow(req->kvSlot(),
                        TokenCount{req->contextLength() - 1}));
    // A leaked slot: open and holding blocks, but no request carries it.
    ASSERT_TRUE(kv.grow(kv.open(12), TokenCount{20}));
    auto auditor = makeAuditor();
    auditor.checkSchedulerView(makeView({}, {req.get()}), &kv,
                               SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-slot-orphan");
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(InvariantAuditor, HealthyBlockManagerPasses)
{
    BlockManager kv(TokenCount{1024}, TokenCount{16});
    KvSlot s1 = kv.open(1);
    ASSERT_TRUE(kv.grow(s1, TokenCount{100}));
    KvSlot s2 = kv.open(2);
    ASSERT_TRUE(kv.grow(s2, TokenCount{37}));
    kv.release(s1);
    auto auditor = makeAuditor();
    auditor.checkBlockManager(kv, SimTime{0.0});
    EXPECT_TRUE(auditor.clean());
}

// --- Shared-block refcount conservation ----------------------------------

/** A consistent snapshot: one shared block held by one owner plus
 *  the cache (refs 2), one evictable block held by the cache alone. */
KvSharedAuditView
makeSharedView()
{
    KvSharedAuditView view;
    view.blockTokens = 16;
    view.owners.push_back({7, 16, {1}});
    view.table = {{1, 2, true}, {2, 1, true}};
    view.cacheHeldBlocks = 2;
    view.evictableBlocks = 1;
    view.cacheWatermark = 4;
    return view;
}

TEST(InvariantAuditor, ConsistentSharedTableIsClean)
{
    auto auditor = makeAuditor();
    auditor.checkSharedTable(makeSharedView(), SimTime{0.0});
    EXPECT_TRUE(auditor.clean());
}

TEST(InvariantAuditor, DetectsMisalignedSharedTokens)
{
    auto view = makeSharedView();
    view.owners[0].sharedTokens = 20; // Not a multiple of 16.
    auto auditor = makeAuditor();
    auditor.checkSharedTable(view, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-shared-refcount");
}

TEST(InvariantAuditor, DetectsDeadSharedBlockInTable)
{
    auto view = makeSharedView();
    view.table[1].refs = 0;
    view.evictableBlocks = 0; // Keep the tallies consistent.
    auto auditor = makeAuditor();
    auditor.checkSharedTable(view, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-shared-refcount");
}

TEST(InvariantAuditor, DetectsRefcountDrift)
{
    auto view = makeSharedView();
    view.table[0].refs = 3; // One owner + the cache can only be 2.
    auto auditor = makeAuditor();
    auditor.checkSharedTable(view, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-shared-refcount");
}

TEST(InvariantAuditor, DetectsPhantomOwnerReference)
{
    auto view = makeSharedView();
    // Owner claims a block the table says only the cache holds: its
    // refcount (1) no longer covers owner + cache (2).
    view.owners[0].sharedIds = {2};
    auto auditor = makeAuditor();
    auditor.checkSharedTable(view, SimTime{0.0});
    // Both blocks now disagree (block 1 lost its owner, block 2
    // gained one); every finding must be the refcount invariant.
    EXPECT_EQ(soleViolation(auditor), "kv-shared-refcount");
}

TEST(InvariantAuditor, DetectsCacheHeldTallyDrift)
{
    auto view = makeSharedView();
    view.cacheHeldBlocks = 3; // Table only shows 2.
    auto auditor = makeAuditor();
    auditor.checkSharedTable(view, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-shared-refcount");
}

TEST(InvariantAuditor, DetectsEvictableTallyDrift)
{
    auto view = makeSharedView();
    view.evictableBlocks = 2; // Table only shows 1 (block 2).
    auto auditor = makeAuditor();
    auditor.checkSharedTable(view, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-shared-refcount");
}

TEST(InvariantAuditor, DetectsWatermarkOverrun)
{
    auto view = makeSharedView();
    view.cacheWatermark = 1; // The cache holds 2.
    auto auditor = makeAuditor();
    auditor.checkSharedTable(view, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-cache-watermark");
}

TEST(InvariantAuditor, WatermarkOverrunOnLiveManager)
{
    // The one watermark corruption reachable through the real API:
    // reconfiguring the watermark below the current holdings.
    BlockManager kv(TokenCount{320}, TokenCount{16});
    kv.setCacheWatermark(4);
    KvSlot s1 = kv.open(1);
    ASSERT_TRUE(kv.grow(s1, TokenCount{48}));
    kv.convertToCached(s1, 3);
    kv.setCacheWatermark(2);
    auto auditor = makeAuditor();
    auditor.checkBlockManager(kv, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "kv-cache-watermark");
}

TEST(InvariantAuditor, HealthySharedBlocksPassCheckBlockManager)
{
    BlockManager kv(TokenCount{320}, TokenCount{16});
    kv.setCacheWatermark(8);
    KvSlot s1 = kv.open(1);
    ASSERT_TRUE(kv.grow(s1, TokenCount{48}));
    auto ids = kv.convertToCached(s1, 2);
    KvSlot s2 = kv.open(2);
    kv.attachShared(s2, ids);
    kv.release(s1);
    auto auditor = makeAuditor();
    auditor.checkBlockManager(kv, SimTime{0.0});
    EXPECT_TRUE(auditor.clean());
}

TEST(InvariantAuditor, CheapLevelSkipsSharedTableWalk)
{
    auto view = makeSharedView();
    view.table[0].refs = 3;
    auto auditor = makeAuditor(audit::CheckLevel::Cheap);
    auditor.checkSharedTable(view, SimTime{0.0});
    EXPECT_TRUE(auditor.clean());
}

// --- Prefix-cache tree vs shared-block table ------------------------------

TEST(InvariantAuditor, DetectsTreeBlockTheManagerDropped)
{
    // The cache's radix tree is built on one manager but audited
    // against another that holds nothing: every tree block is a
    // dangling reference.
    BlockManager kv(TokenCount{320}, TokenCount{16});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);
    RequestSpec spec;
    spec.id = 1;
    spec.promptTokens = 32;
    spec.promptSegments = {{7, 32}};
    KvSlot s1 = kv.open(1);
    ASSERT_TRUE(kv.grow(s1, TokenCount{32}));
    cache.insert(s1, spec, SimTime{1.0});
    ASSERT_EQ(cache.nodeCount(), 2u);

    BlockManager other(TokenCount{320}, TokenCount{16});
    auto auditor = makeAuditor();
    auditor.checkPrefixCache(cache, other, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "prefix-tree-blocks");
    EXPECT_EQ(auditor.violationCount(), 2u);
}

TEST(InvariantAuditor, DetectsCacheHeldBlockMissingFromTree)
{
    // Blocks enter the cache-held state behind the tree's back (a
    // direct conversion): the tree has no node for them.
    BlockManager kv(TokenCount{320}, TokenCount{16});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);
    KvSlot s1 = kv.open(1);
    ASSERT_TRUE(kv.grow(s1, TokenCount{32}));
    kv.convertToCached(s1, 2);

    auto auditor = makeAuditor();
    auditor.checkPrefixCache(cache, kv, SimTime{0.0});
    EXPECT_EQ(soleViolation(auditor), "prefix-tree-blocks");
    EXPECT_EQ(auditor.violationCount(), 2u);
}

TEST(InvariantAuditor, ConsistentPrefixCachePasses)
{
    BlockManager kv(TokenCount{320}, TokenCount{16});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);
    RequestSpec spec;
    spec.id = 1;
    spec.promptTokens = 32;
    spec.promptSegments = {{7, 32}};
    KvSlot s1 = kv.open(1);
    ASSERT_TRUE(kv.grow(s1, TokenCount{32}));
    cache.insert(s1, spec, SimTime{1.0});

    auto auditor = makeAuditor();
    auditor.checkPrefixCache(cache, kv, SimTime{0.0});
    auditor.checkBlockManager(kv, SimTime{0.0});
    EXPECT_TRUE(auditor.clean());
}

// --- Crash-release including shared blocks --------------------------------

TEST(InvariantAuditor, CrashWithSurvivingSharedBlocksIsReported)
{
    BlockManager kv(TokenCount{1 << 14}, TokenCount{16});
    kv.setCacheWatermark(8);
    PerfModel perf(llama3_8b_a100_tp1());
    SchedulerEnv env;
    env.kv = &kv;
    env.perf = &perf;
    FcfsScheduler sched(env);

    // A clean post-crash state passes...
    auto auditor = makeAuditor();
    auditor.onReplicaCrash(kv, sched, 0, SimTime{1.0});
    EXPECT_TRUE(auditor.clean());

    // ...but shared blocks surviving the crash-release are a leak.
    KvSlot s1 = kv.open(1);
    ASSERT_TRUE(kv.grow(s1, TokenCount{32}));
    kv.convertToCached(s1, 2);
    kv.release(s1); // Cache-held, evictable — and nothing else.
    auto auditor2 = makeAuditor();
    auditor2.onReplicaCrash(kv, sched, 0, SimTime{2.0});
    EXPECT_FALSE(auditor2.clean());
    bool saw_crash_release = false;
    for (const auto &v : auditor2.violations())
        saw_crash_release |= v.invariant == "kv-crash-release";
    EXPECT_TRUE(saw_crash_release);
}

TEST(InvariantAuditor, DetectsClockRegression)
{
    EventQueue advanced;
    advanced.schedule(SimTime{10.0}, [] {});
    advanced.run();
    ASSERT_DOUBLE_EQ(advanced.now().seconds(), 10.0);

    EventQueue fresh; // A second queue still at t = 0.

    auto auditor = makeAuditor();
    auditor.checkEventTime(advanced);
    EXPECT_TRUE(auditor.clean());
    auditor.checkEventTime(fresh);
    EXPECT_EQ(soleViolation(auditor), "clock-monotone");
}

// --- SLO record sanity ---------------------------------------------------

RequestRecord
makeRecord(std::uint64_t id)
{
    RequestRecord rec;
    rec.spec.id = id;
    rec.spec.arrival = SimTime{5.0};
    rec.spec.promptTokens = 100;
    rec.spec.decodeTokens = 10;
    rec.spec.tierId = 0;
    rec.firstTokenTime = SimTime{6.0};
    rec.finishTime = SimTime{7.0};
    rec.maxTbt = 0.05;
    return rec;
}

TEST(InvariantAuditor, ConsistentRecordIsClean)
{
    auto auditor = makeAuditor();
    auditor.checkRecord(makeRecord(1), paperTierTable());
    EXPECT_TRUE(auditor.clean());
}

TEST(InvariantAuditor, DetectsUnknownTierInRecord)
{
    auto rec = makeRecord(1);
    rec.spec.tierId = 99;
    auto auditor = makeAuditor();
    auditor.checkRecord(rec, paperTierTable());
    EXPECT_EQ(soleViolation(auditor), "slo-record");
}

TEST(InvariantAuditor, DetectsNegativeTtft)
{
    auto rec = makeRecord(1);
    rec.firstTokenTime = rec.spec.arrival - 1.0;
    auto auditor = makeAuditor();
    auditor.checkRecord(rec, paperTierTable());
    EXPECT_EQ(soleViolation(auditor), "slo-ttft-sample");
}

TEST(InvariantAuditor, DetectsFinishBeforeFirstToken)
{
    auto rec = makeRecord(1);
    rec.finishTime = rec.firstTokenTime - 0.5;
    auto auditor = makeAuditor();
    auditor.checkRecord(rec, paperTierTable());
    EXPECT_EQ(soleViolation(auditor), "slo-token-order");
}

TEST(InvariantAuditor, DetectsInvalidMaxTbt)
{
    auto rec = makeRecord(1);
    rec.maxTbt = std::numeric_limits<double>::quiet_NaN();
    auto auditor = makeAuditor();
    auditor.checkRecord(rec, paperTierTable());
    EXPECT_EQ(soleViolation(auditor), "slo-tbt-sample");

    rec = makeRecord(2);
    rec.maxTbt = -0.1;
    auto auditor2 = makeAuditor();
    auditor2.checkRecord(rec, paperTierTable());
    EXPECT_EQ(soleViolation(auditor2), "slo-tbt-sample");
}

TEST(InvariantAuditor, DetectsImpossibleTbtMissCount)
{
    auto rec = makeRecord(1);
    rec.tbtDeadlineMisses = rec.spec.decodeTokens + 1;
    auto auditor = makeAuditor();
    auditor.checkRecord(rec, paperTierTable());
    EXPECT_EQ(soleViolation(auditor), "slo-miss-count");
}

TEST(InvariantAuditor, RejectedRecordSkipsLatencyChecks)
{
    RequestRecord rec; // Latencies stay infinite by design.
    rec.spec.tierId = 0;
    rec.rejected = true;
    auto auditor = makeAuditor();
    auditor.checkRecord(rec, paperTierTable());
    EXPECT_TRUE(auditor.clean());
}

// --- Level gating and reporting modes ------------------------------------

TEST(InvariantAuditor, OffLevelIgnoresCorruptState)
{
    auto req = makeRequest(7, 100, 10);
    auto view = makeView({req.get(), req.get()}, {});
    view.pendingPrefillTokens = -5;
    auto auditor = makeAuditor(audit::CheckLevel::Off);
    auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_TRUE(auditor.clean());
}

TEST(InvariantAuditor, CheapLevelSkipsFullOnlyWalks)
{
    auto req = makeRequest(7, 100, 10);
    // Exclusivity (full-only) is violated; the cheap counters are
    // consistent, so a cheap auditor must stay clean.
    auto view = makeView({req.get(), req.get()}, {});
    view.pendingPrefillTokens = 2 * req->prefillRemaining();
    auto cheap = makeAuditor(audit::CheckLevel::Cheap);
    cheap.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_TRUE(cheap.clean());

    auto full = makeAuditor(audit::CheckLevel::Full);
    full.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_FALSE(full.clean());
}

TEST(InvariantAuditor, FailFastPanicsOnFirstViolation)
{
    auto view = makeView({}, {});
    view.pendingPrefillTokens = -1;
    InvariantAuditor auditor; // Default: failFast, compiled level.
    if (auditor.level() == audit::CheckLevel::Off)
        GTEST_SKIP() << "auditing compiled out";
    EXPECT_DEATH(auditor.checkSchedulerView(view, nullptr, SimTime{0.0}),
                 "invariant violated");
}

TEST(InvariantAuditor, RetainsViolationsUpToCap)
{
    InvariantAuditor::Options opts;
    opts.level = audit::CheckLevel::Full;
    opts.failFast = false;
    opts.maxRetained = 2;
    InvariantAuditor auditor(opts);
    auto view = makeView({}, {});
    view.pendingPrefillTokens = -1;
    // Each check trips the negative counter twice: the cheap bound
    // and the full-level sum-vs-counter comparison.
    for (int i = 0; i < 5; ++i)
        auditor.checkSchedulerView(view, nullptr, SimTime{0.0});
    EXPECT_EQ(auditor.violationCount(), 10u);
    EXPECT_EQ(auditor.violations().size(), 2u);
    EXPECT_EQ(auditor.violations().front().invariant,
              "sched-pending-prefill");
}

// --- Enforced EventQueue timestamp semantics (satellite) -----------------

TEST(EventQueueValidation, RejectsNonFiniteTimestamps)
{
    EventQueue eq;
    EXPECT_DEATH(
        eq.schedule(SimTime{std::numeric_limits<double>::quiet_NaN()}, [] {}),
        "non-finite");
    EXPECT_DEATH(eq.schedule(kTimeNever, [] {}), "non-finite");
}

TEST(EventQueueValidation, RejectsSchedulingInThePast)
{
    EventQueue eq;
    eq.schedule(SimTime{5.0}, [] {});
    eq.run();
    ASSERT_DOUBLE_EQ(eq.now().seconds(), 5.0);
    EXPECT_DEATH(eq.schedule(SimTime{4.0}, [] {}), "in the past");
}

TEST(EventQueueValidation, RejectsInvalidDelays)
{
    EventQueue eq;
    EXPECT_DEATH(eq.scheduleAfter(-1.0, [] {}), "non-negative");
    EXPECT_DEATH(
        eq.scheduleAfter(std::numeric_limits<double>::infinity(), [] {}),
        "non-negative");
}

TEST(EventQueueValidation, AcceptsPresentAndFutureTimes)
{
    EventQueue eq;
    eq.schedule(SimTime{1.0}, [] {});
    eq.run();
    int fired = 0;
    eq.schedule(eq.now(), [&] { ++fired; }); // Exactly now is legal.
    eq.scheduleAfter(0.0, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
}

} // namespace
} // namespace qoserve
