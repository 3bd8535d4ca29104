/**
 * @file
 * PrefixCache unit and property tests: content keys, insert/attach/
 * probe flows, copy-on-write tails, deterministic LRU eviction and
 * refcount conservation under randomized interleavings.
 */

#include "prefixcache/prefix_cache.hh"

#include <cmath>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.hh"
#include "simcore/rng.hh"

namespace qoserve {
namespace {

constexpr int kB = 16; ///< Block size used throughout.

RequestSpec
spec(std::uint64_t id, std::vector<PromptSegment> segments)
{
    RequestSpec s;
    s.id = id;
    s.promptSegments = std::move(segments);
    for (const auto &seg : s.promptSegments)
        s.promptTokens += seg.tokens;
    return s;
}

RequestSpec
uniqueSpec(std::uint64_t id, int prompt_tokens)
{
    RequestSpec s;
    s.id = id;
    s.promptTokens = prompt_tokens;
    return s;
}

std::string
describe(const InvariantAuditor &auditor)
{
    std::string out;
    for (const auto &v : auditor.violations())
        out += std::string(v.invariant) + ": " + v.detail + "\n";
    return out;
}

TEST(PrefixBlockKeys, OneKeyPerFullBlock)
{
    auto keys = prefixBlockKeys(spec(1, {{7, 100}}), TokenCount{kB});
    EXPECT_EQ(keys.size(), 6u); // floor(100 / 16)
    EXPECT_TRUE(prefixBlockKeys(spec(2, {{7, 15}}), TokenCount{kB}).empty());
}

TEST(PrefixBlockKeys, EqualContentGivesEqualKeys)
{
    auto a = prefixBlockKeys(spec(1, {{7, 64}, {9, 32}}), TokenCount{kB});
    auto b = prefixBlockKeys(spec(2, {{7, 64}, {9, 32}}), TokenCount{kB});
    EXPECT_EQ(a, b);
}

TEST(PrefixBlockKeys, KeysDivergeAtTheFirstDifferingSegment)
{
    auto a = prefixBlockKeys(spec(1, {{7, 64}, {9, 32}}), TokenCount{kB});
    auto b = prefixBlockKeys(spec(2, {{7, 64}, {11, 32}}), TokenCount{kB});
    ASSERT_EQ(a.size(), 6u);
    ASSERT_EQ(b.size(), 6u);
    // Blocks fully inside the common segment agree...
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(a[i], b[i]) << "block " << i;
    // ...and every block touching the differing segment does not.
    EXPECT_NE(a[4], b[4]);
    EXPECT_NE(a[5], b[5]);
}

TEST(PrefixBlockKeys, UniquePromptsNeverCollide)
{
    auto a = prefixBlockKeys(uniqueSpec(1, 64), TokenCount{kB});
    auto b = prefixBlockKeys(uniqueSpec(2, 64), TokenCount{kB});
    ASSERT_EQ(a.size(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NE(a[i], b[i]) << "block " << i;
    // But the same request replayed keys identically.
    EXPECT_EQ(a, prefixBlockKeys(uniqueSpec(1, 64), TokenCount{kB}));
}

/** Drive one request through its lifecycle: attach at admission,
 *  grow the remaining prompt privately, insert at prefill end. */
int
serveRequest(BlockManager &kv, PrefixCache &cache, KvSlot slot,
             const RequestSpec &s, SimTime now)
{
    int cached = cache.attach(slot, s, now);
    EXPECT_TRUE(kv.grow(slot, TokenCount{s.promptTokens - cached}));
    cache.insert(slot, s, now);
    return cached;
}

TEST(PrefixCache, DisabledCacheIsInert)
{
    BlockManager kv(TokenCount{320}, TokenCount{kB});
    PrefixCache cache(kv, PrefixCacheConfig{});
    EXPECT_FALSE(cache.enabled());
    RequestSpec s = spec(1, {{7, 64}});
    KvSlot s1 = kv.open(1);
    EXPECT_EQ(cache.attach(s1, s, SimTime{0.0}), 0);
    ASSERT_TRUE(kv.grow(s1, TokenCount{64}));
    cache.insert(s1, s, SimTime{0.0});
    EXPECT_EQ(cache.nodeCount(), 0u);
    EXPECT_EQ(cache.stats().lookups, 0);
    EXPECT_EQ(kv.sharedBlockCount(), 0);
    // No watermark, no handler: available == free.
    EXPECT_EQ(kv.availableBlocks(), kv.freeBlocks());
    EXPECT_FALSE(cache.auditView().populated);
}

TEST(PrefixCache, ConfigRejectsOutOfRangeCapacity)
{
    PrefixCacheConfig cfg;
    for (double frac : {0.0, 1.5, std::nan("")}) {
        cfg.capacityFrac = frac;
        EXPECT_DEATH(cfg.validate(), "capacity fraction") << frac;
    }
    cfg.capacityFrac = 1.0;
    cfg.validate();
}

TEST(PrefixCache, InsertPopulatesTreeAndAttachReusesIt)
{
    BlockManager kv(TokenCount{320}, TokenCount{kB}); // 20 blocks
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);

    // First request misses and contributes its 4 full prompt blocks.
    RequestSpec first = spec(1, {{7, 64}, {9, 32}});
    KvSlot s1 = kv.open(1);
    EXPECT_EQ(serveRequest(kv, cache, s1, first, SimTime{1.0}), 0);
    EXPECT_EQ(cache.nodeCount(), 6u);
    EXPECT_EQ(cache.stats().lookups, 1);
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().blocksInserted, 6);
    kv.release(s1);

    // A second request sharing only the system prompt reuses the
    // four blocks of that segment.
    RequestSpec second = spec(2, {{7, 64}, {11, 32}});
    KvSlot s2 = kv.open(2);
    int cached = cache.attach(s2, second, SimTime{2.0});
    EXPECT_EQ(cached, 64);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().tokensAttached, 64);
    EXPECT_EQ(cache.stats().cowCopies, 0);
    EXPECT_EQ(kv.sharedTokens(s2), 64);
    EXPECT_EQ(kv.ownedTokens(s2), 0);
}

TEST(PrefixCache, FullPromptMatchCowCopiesTheTail)
{
    BlockManager kv(TokenCount{320}, TokenCount{kB});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);

    RequestSpec s = spec(1, {{7, 64}});
    KvSlot s1 = kv.open(1);
    serveRequest(kv, cache, s1, s, SimTime{1.0});
    kv.release(s1);

    // Identical prompt: the match covers all 64 tokens but the attach
    // is capped at 63 so one real prefill token remains; the partial
    // fourth block is copied privately (COW).
    RequestSpec again = spec(2, {{7, 64}});
    KvSlot s2 = kv.open(2);
    int cached = cache.attach(s2, again, SimTime{2.0});
    EXPECT_EQ(cached, 63);
    EXPECT_EQ(cache.stats().cowCopies, 1);
    EXPECT_EQ(kv.sharedTokens(s2), 48); // 3 full shared blocks
    EXPECT_EQ(kv.ownedTokens(s2), 15);  // the COW'd tail

    // Finishing the prefill dedups the recomputed fourth block onto
    // the cached copy instead of inserting a duplicate.
    ASSERT_TRUE(kv.grow(s2, TokenCount{1}));
    cache.insert(s2, again, SimTime{2.0});
    EXPECT_EQ(cache.nodeCount(), 4u);
    EXPECT_EQ(kv.sharedTokens(s2), 64);
    EXPECT_EQ(kv.ownedTokens(s2), 0);
}

TEST(PrefixCache, CowTailNeedsAFreeBlock)
{
    BlockManager kv(TokenCount{64}, TokenCount{kB}); // 4 blocks
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    cfg.capacityFrac = 1.0;
    PrefixCache cache(kv, cfg);

    RequestSpec s = spec(1, {{7, 64}});
    KvSlot s1 = kv.open(1);
    serveRequest(kv, cache, s1, s, SimTime{1.0});
    kv.release(s1);
    ASSERT_EQ(kv.freeBlocks(), 0);

    // All four blocks are cached and none are free: the full-block
    // part of the match attaches, but the COW tail is dropped rather
    // than evicting (the eviction could reclaim the very block the
    // copy reads from).
    KvSlot s2 = kv.open(2);
    int cached = cache.attach(s2, spec(2, {{7, 64}}), SimTime{2.0});
    EXPECT_EQ(cached, 48);
    EXPECT_EQ(cache.stats().cowCopies, 0);
    EXPECT_EQ(kv.ownedTokens(s2), 0);
}

TEST(PrefixCache, ProbeMatchesAttachWithoutSideEffects)
{
    BlockManager kv(TokenCount{320}, TokenCount{kB});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);

    KvSlot s1 = kv.open(1);
    serveRequest(kv, cache, s1, spec(1, {{7, 64}, {9, 32}}), SimTime{1.0});
    kv.release(s1);

    RequestSpec partial = spec(2, {{7, 64}, {11, 32}});
    RequestSpec exact = spec(3, {{7, 64}, {9, 32}});
    RequestSpec miss = spec(4, {{8, 64}});
    EXPECT_EQ(cache.probe(partial), 64);
    EXPECT_EQ(cache.probe(exact), 95); // capped one token short
    EXPECT_EQ(cache.probe(miss), 0);

    // Probing is free: no lookups, hits, attachments or LRU touches.
    EXPECT_EQ(cache.stats().lookups, 1);
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(kv.numOwners(), 0u);

    // And probe agrees with what attach then delivers.
    KvSlot s2 = kv.open(2);
    EXPECT_EQ(cache.attach(s2, partial, SimTime{2.0}), 64);
}

TEST(PrefixCache, EvictionIsLruLeafOnlyWithIdTieBreak)
{
    BlockManager kv(TokenCount{320}, TokenCount{kB});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);

    // Two chains inserted at distinct times, then both released.
    KvSlot s1 = kv.open(1);
    serveRequest(kv, cache, s1, spec(1, {{7, 32}}), SimTime{1.0});  // blocks A0<A1
    KvSlot s2 = kv.open(2);
    serveRequest(kv, cache, s2, spec(2, {{9, 32}}), SimTime{2.0});  // blocks B0<B1
    kv.release(s1);
    kv.release(s2);
    auto table = kv.sharedBlockTable();
    ASSERT_EQ(table.size(), 4u);
    KvBlockId a0 = table[0].id, a1 = table[1].id;
    KvBlockId b0 = table[2].id, b1 = table[3].id;

    // Oldest chain first, and within it only the leaf is eligible:
    // A1 goes before A0 even though A0 has the smaller id.
    EXPECT_EQ(cache.evictBlocks(1), 1);
    auto held = [&] {
        std::vector<KvBlockId> ids;
        for (const auto &info : kv.sharedBlockTable())
            ids.push_back(info.id);
        return ids;
    };
    EXPECT_EQ(held(), (std::vector<KvBlockId>{a0, b0, b1}));
    EXPECT_EQ(cache.evictBlocks(1), 1);
    EXPECT_EQ(held(), (std::vector<KvBlockId>{b0, b1}));
    EXPECT_EQ(cache.evictBlocks(2), 2);
    EXPECT_EQ(cache.nodeCount(), 0u);
    EXPECT_EQ(cache.stats().blocksEvicted, 4);
    EXPECT_EQ(kv.usedBlocks(), 0);
    (void)a1;
    (void)b1;
}

TEST(PrefixCache, AttachRefreshesLruOrder)
{
    BlockManager kv(TokenCount{320}, TokenCount{kB});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);

    KvSlot s1 = kv.open(1);
    serveRequest(kv, cache, s1, spec(1, {{7, 16}}), SimTime{1.0});
    KvSlot s2 = kv.open(2);
    serveRequest(kv, cache, s2, spec(2, {{9, 16}}), SimTime{2.0});
    kv.release(s1);
    kv.release(s2);

    // Touch the older chain: a hit at t=10 makes it the newer one.
    KvSlot s3 = kv.open(3);
    EXPECT_EQ(cache.attach(s3, spec(3, {{7, 32}}), SimTime{10.0}), 16);
    kv.release(s3);

    // Eviction now reclaims the untouched chain (content 9) first.
    auto before = kv.sharedBlockTable();
    ASSERT_EQ(before.size(), 2u);
    EXPECT_EQ(cache.evictBlocks(1), 1);
    auto after = kv.sharedBlockTable();
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].id, before[0].id); // content 7's block survives
}

TEST(PrefixCache, PinnedBlocksAreNotEvictable)
{
    BlockManager kv(TokenCount{320}, TokenCount{kB});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);

    KvSlot s1 = kv.open(1);
    serveRequest(kv, cache, s1, spec(1, {{7, 32}}), SimTime{1.0});
    // Owner 1 still references both blocks: nothing can be evicted.
    EXPECT_EQ(cache.evictBlocks(2), 0);
    EXPECT_EQ(cache.nodeCount(), 2u);
    kv.release(s1);
    EXPECT_EQ(cache.evictBlocks(2), 2);
}

TEST(PrefixCache, InsertCachesOnlyWhatTheWatermarkAllows)
{
    BlockManager kv(TokenCount{128}, TokenCount{kB}); // 8 blocks
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    cfg.capacityFrac = 0.25; // watermark: 2 blocks
    PrefixCache cache(kv, cfg);

    // The owner still pins every cached block, so the insert cannot
    // evict its way to room: only the leading two blocks enter.
    RequestSpec s = spec(1, {{7, 64}});
    KvSlot s1 = kv.open(1);
    EXPECT_EQ(cache.attach(s1, s, SimTime{1.0}), 0);
    ASSERT_TRUE(kv.grow(s1, TokenCount{64}));
    cache.insert(s1, s, SimTime{1.0});
    EXPECT_EQ(cache.nodeCount(), 2u);
    EXPECT_EQ(kv.cacheHeldBlocks(), 2);
    EXPECT_EQ(kv.sharedTokens(s1), 32);
    EXPECT_EQ(kv.ownedTokens(s1), 32);

    // Once the pins are gone a new insert evicts the cold blocks to
    // make room for its own, still respecting the watermark.
    kv.release(s1);
    KvSlot s2 = kv.open(2);
    serveRequest(kv, cache, s2, spec(2, {{9, 64}}), SimTime{2.0});
    EXPECT_EQ(cache.nodeCount(), 2u);
    EXPECT_EQ(kv.cacheHeldBlocks(), 2);
    EXPECT_EQ(cache.stats().blocksEvicted, 2);
}

TEST(PrefixCache, DropAllForgetsTheTree)
{
    BlockManager kv(TokenCount{320}, TokenCount{kB});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);

    KvSlot s1 = kv.open(1);
    serveRequest(kv, cache, s1, spec(1, {{7, 64}}), SimTime{1.0});
    ASSERT_EQ(cache.nodeCount(), 4u);

    // The crash path: the manager releases every block, then the
    // cache drops its (now dangling) tree.
    kv.releaseAll();
    cache.dropAll();
    EXPECT_EQ(cache.nodeCount(), 0u);
    EXPECT_EQ(cache.stats().treeDrops, 1);
    EXPECT_TRUE(cache.auditView().treeBlocks.empty());

    // The rebuilt tree serves hits again.
    KvSlot s2 = kv.open(2);
    serveRequest(kv, cache, s2, spec(2, {{7, 64}}), SimTime{2.0});
    kv.release(s2);
    KvSlot s3 = kv.open(3);
    EXPECT_EQ(cache.attach(s3, spec(3, {{7, 64}}), SimTime{3.0}), 63);
}

TEST(PrefixCache, AuditViewMirrorsTheSharedTable)
{
    BlockManager kv(TokenCount{320}, TokenCount{kB});
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    PrefixCache cache(kv, cfg);

    KvSlot s1 = kv.open(1);
    serveRequest(kv, cache, s1, spec(1, {{7, 48}}), SimTime{1.0});
    auto view = cache.auditView();
    EXPECT_TRUE(view.populated);
    EXPECT_EQ(view.nodeCount, 3u);
    ASSERT_EQ(view.treeBlocks.size(), 3u);
    auto table = kv.sharedBlockTable();
    ASSERT_EQ(table.size(), 3u);
    for (std::size_t i = 0; i < table.size(); ++i)
        EXPECT_EQ(view.treeBlocks[i], table[i].id);
}

/**
 * Property test: a randomized interleaving of admissions, prefill
 * completions and releases keeps every refcount and tree invariant
 * intact, checked by the full-level auditor after each step.
 */
TEST(PrefixCache, RandomizedLifecycleKeepsInvariants)
{
    BlockManager kv(TokenCount{1024}, TokenCount{kB}); // 64 blocks
    PrefixCacheConfig cfg;
    cfg.enabled = true;
    cfg.capacityFrac = 0.4;
    PrefixCache cache(kv, cfg);

    InvariantAuditor::Options opts;
    opts.level = audit::CheckLevel::Full;
    opts.failFast = false;
    InvariantAuditor auditor(opts);

    Rng rng(20240805);
    std::vector<std::pair<KvSlot, RequestSpec>> active;
    KvOwnerId next_owner = 1;
    SimTime now;

    for (int step = 0; step < 400; ++step) {
        now += 0.25;
        bool release_one =
            !active.empty() &&
            (active.size() >= 12 || rng.uniform() < 0.35);
        if (release_one) {
            std::size_t pick = static_cast<std::size_t>(
                rng.nextU64() % active.size());
            kv.release(active[pick].first);
            active.erase(active.begin() +
                         static_cast<std::ptrdiff_t>(pick));
        } else {
            // Draw a prompt: mostly from a small pool of shared
            // contents (plus a unique second segment), sometimes
            // wholly unique.
            KvOwnerId owner = next_owner++;
            RequestSpec s;
            if (rng.uniform() < 0.8) {
                std::uint64_t pool = rng.nextU64() % 4;
                int head = 32 + 16 * static_cast<int>(pool);
                int tail = 8 + static_cast<int>(rng.nextU64() % 40);
                s = spec(owner, {{100 + pool, head},
                                 {0x8000'0000ull + owner, tail}});
            } else {
                s = uniqueSpec(owner, 16 + static_cast<int>(
                                          rng.nextU64() % 80));
            }
            KvSlot slot = kv.open(owner);
            int cached = cache.attach(slot, s, now);
            ASSERT_LE(cached, s.promptTokens - 1);
            if (kv.grow(slot, TokenCount{s.promptTokens - cached})) {
                cache.insert(slot, s, now);
                active.emplace_back(slot, s);
            } else {
                kv.release(slot); // admission failed: roll back
            }
        }
        auditor.checkBlockManager(kv, now);
        auditor.checkPrefixCache(cache, kv, now);
        ASSERT_TRUE(auditor.clean())
            << "step " << step << "\n"
            << describe(auditor);
    }

    // Drain and make sure the cache alone survives, fully evictable.
    for (auto &[slot, s] : active)
        kv.release(slot);
    auditor.checkBlockManager(kv, now);
    auditor.checkPrefixCache(cache, kv, now);
    EXPECT_TRUE(auditor.clean()) << describe(auditor);
    EXPECT_EQ(kv.evictableBlocks(), kv.cacheHeldBlocks());
    EXPECT_LE(kv.cacheHeldBlocks(),
              static_cast<std::int64_t>(0.4 * kv.totalBlocks()));
}

} // namespace
} // namespace qoserve
