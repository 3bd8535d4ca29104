/**
 * @file
 * Unit tests for the BlockManager shared-block layer: refcounting,
 * cache holds, eviction accounting, copy-on-write support and the
 * watermark — the substrate the prefix cache (src/prefixcache) is
 * built on.
 */

#include "kvcache/block_manager.hh"

#include <gtest/gtest.h>

namespace qoserve {
namespace {

TEST(SharedBlocks, ConvertMovesFullBlocksToShared)
{
    BlockManager bm(TokenCount{160}, TokenCount{16}); // 10 blocks
    KvSlot s1 = bm.open(1);
    bm.setCacheWatermark(5);
    ASSERT_TRUE(bm.grow(s1, TokenCount{64})); // 4 full blocks
    auto ids = bm.convertToCached(s1, 3);
    ASSERT_EQ(ids.size(), 3u);
    // Ids are monotonic: parents sort before children.
    EXPECT_LT(ids[0], ids[1]);
    EXPECT_LT(ids[1], ids[2]);

    // No physical movement: the owner still covers 64 tokens, now
    // split 16 private / 48 shared.
    EXPECT_EQ(bm.usedBlocks(), 4);
    EXPECT_EQ(bm.ownedTokens(s1), 16);
    EXPECT_EQ(bm.ownedBlocks(s1), 1);
    EXPECT_EQ(bm.sharedTokens(s1), 48);
    EXPECT_EQ(bm.ownerSharedBlocks(s1), 3);
    EXPECT_EQ(bm.sharedBlockCount(), 3);
    EXPECT_EQ(bm.cacheHeldBlocks(), 3);
    // Owner + cache hold each block: nothing is evictable yet.
    EXPECT_EQ(bm.evictableBlocks(), 0);
    for (KvBlockId id : ids)
        EXPECT_EQ(bm.sharedRefs(id), 2);
}

TEST(SharedBlocks, ReleaseLeavesCacheHeldBlocksEvictable)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot s1 = bm.open(1);
    bm.setCacheWatermark(5);
    ASSERT_TRUE(bm.grow(s1, TokenCount{48}));
    auto ids = bm.convertToCached(s1, 3);
    bm.release(s1);

    // The blocks survive the owner: the cache still holds them, and
    // with refs down to one they are all evictable.
    EXPECT_EQ(bm.numOwners(), 0u);
    EXPECT_EQ(bm.usedBlocks(), 3);
    EXPECT_EQ(bm.evictableBlocks(), 3);
    EXPECT_EQ(bm.availableBlocks(), bm.freeBlocks() + 3);
    for (KvBlockId id : ids)
        EXPECT_EQ(bm.sharedRefs(id), 1);
}

TEST(SharedBlocks, AttachAddsAndReleaseDropsReferences)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot s1 = bm.open(1);
    KvSlot s2 = bm.open(2);
    bm.setCacheWatermark(5);
    ASSERT_TRUE(bm.grow(s1, TokenCount{32}));
    auto ids = bm.convertToCached(s1, 2);
    bm.release(s1);
    ASSERT_EQ(bm.evictableBlocks(), 2);

    // A cache hit pins the blocks again.
    bm.attachShared(s2, ids);
    EXPECT_EQ(bm.sharedTokens(s2), 32);
    EXPECT_EQ(bm.ownerSharedBlocks(s2), 2);
    EXPECT_EQ(bm.evictableBlocks(), 0);
    for (KvBlockId id : ids)
        EXPECT_EQ(bm.sharedRefs(id), 2);

    bm.release(s2);
    EXPECT_EQ(bm.evictableBlocks(), 2);
    EXPECT_EQ(bm.usedBlocks(), 2);
}

TEST(SharedBlocks, DropCacheRefFreesUnreferencedBlock)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot s1 = bm.open(1);
    bm.setCacheWatermark(5);
    ASSERT_TRUE(bm.grow(s1, TokenCount{32}));
    auto ids = bm.convertToCached(s1, 2);

    // While the owner holds the block, dropping the cache ref keeps
    // the physical block alive.
    EXPECT_FALSE(bm.dropCacheRef(ids[0]));
    EXPECT_EQ(bm.cacheHeldBlocks(), 1);
    EXPECT_EQ(bm.usedBlocks(), 2);
    EXPECT_EQ(bm.sharedRefs(ids[0]), 1);

    // Once the owner is gone the cache held the last reference and
    // the drop frees the block.
    bm.release(s1);
    EXPECT_EQ(bm.usedBlocks(), 1);
    EXPECT_TRUE(bm.dropCacheRef(ids[1]));
    EXPECT_EQ(bm.usedBlocks(), 0);
    EXPECT_EQ(bm.sharedBlockCount(), 0);
    EXPECT_EQ(bm.sharedRefs(ids[1]), 0);
}

TEST(SharedBlocks, DedupReplacesPrivateCopiesAndFreesBlocks)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot s1 = bm.open(1);
    KvSlot s2 = bm.open(2);
    bm.setCacheWatermark(5);
    ASSERT_TRUE(bm.grow(s1, TokenCount{32}));
    auto ids = bm.convertToCached(s1, 2);

    // A second request recomputed the same two blocks privately (it
    // missed the cache at admission), plus a private tail.
    ASSERT_TRUE(bm.grow(s2, TokenCount{40}));
    ASSERT_EQ(bm.usedBlocks(), 5);
    bm.dedupToShared(s2, ids);

    // The duplicates are freed; the owner now references the shared
    // copies and keeps its 8-token tail.
    EXPECT_EQ(bm.usedBlocks(), 3);
    EXPECT_EQ(bm.ownedTokens(s2), 8);
    EXPECT_EQ(bm.ownedBlocks(s2), 1);
    EXPECT_EQ(bm.sharedTokens(s2), 32);
    for (KvBlockId id : ids)
        EXPECT_EQ(bm.sharedRefs(id), 3);
}

TEST(SharedBlocks, GrowEvictsThroughHandlerWhenFreeBlocksShort)
{
    BlockManager bm(TokenCount{64}, TokenCount{16}); // 4 blocks
    KvSlot s1 = bm.open(1);
    KvSlot s2 = bm.open(2);
    bm.setCacheWatermark(4);
    ASSERT_TRUE(bm.grow(s1, TokenCount{48}));
    std::vector<KvBlockId> ids = bm.convertToCached(s1, 3);
    bm.release(s1);
    ASSERT_EQ(bm.freeBlocks(), 1);
    ASSERT_EQ(bm.evictableBlocks(), 3);

    // The handler reclaims evictable blocks on demand, newest id
    // first here (the handler decides the policy).
    std::int64_t handler_calls = 0;
    bm.setEvictionHandler([&](std::int64_t wanted) {
        ++handler_calls;
        std::int64_t freed = 0;
        while (freed < wanted && !ids.empty()) {
            if (bm.dropCacheRef(ids.back()))
                ++freed;
            ids.pop_back();
        }
        return freed;
    });

    // 40 tokens need 3 blocks; only 1 is free, so 2 must be evicted.
    EXPECT_TRUE(bm.grow(s2, TokenCount{40}));
    EXPECT_EQ(handler_calls, 1);
    EXPECT_EQ(bm.ownedTokens(s2), 40);
    EXPECT_EQ(bm.cacheHeldBlocks(), 1);
}

TEST(SharedBlocks, DoomedGrowDoesNotDrainTheCache)
{
    BlockManager bm(TokenCount{64}, TokenCount{16}); // 4 blocks
    KvSlot s1 = bm.open(1);
    KvSlot s2 = bm.open(2);
    bm.setCacheWatermark(4);
    ASSERT_TRUE(bm.grow(s1, TokenCount{32}));
    bm.convertToCached(s1, 2);
    bm.release(s1);
    ASSERT_EQ(bm.availableBlocks(), 4);

    std::int64_t handler_calls = 0;
    bm.setEvictionHandler([&](std::int64_t) -> std::int64_t {
        ++handler_calls;
        return 0;
    });

    // 5 blocks can never be satisfied, even evicting everything: the
    // handler must not be consulted for a request that is doomed.
    EXPECT_FALSE(bm.grow(s2, TokenCount{80}));
    EXPECT_EQ(handler_calls, 0);
    EXPECT_EQ(bm.evictableBlocks(), 2);
}

TEST(SharedBlocks, GrowWithoutHandlerIgnoresEvictableBlocks)
{
    BlockManager bm(TokenCount{64}, TokenCount{16});
    KvSlot s1 = bm.open(1);
    KvSlot s2 = bm.open(2);
    bm.setCacheWatermark(4);
    ASSERT_TRUE(bm.grow(s1, TokenCount{48}));
    bm.convertToCached(s1, 3);
    bm.release(s1);
    ASSERT_EQ(bm.freeBlocks(), 1);

    // No handler installed: only genuinely free blocks count.
    EXPECT_FALSE(bm.grow(s2, TokenCount{32}));
    EXPECT_TRUE(bm.grow(s2, TokenCount{16}));
}

TEST(SharedBlocks, ConvertPastWatermarkPanics)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot s1 = bm.open(1);
    KvSlot s2 = bm.open(2);
    bm.setCacheWatermark(2);
    ASSERT_TRUE(bm.grow(s1, TokenCount{64}));
    bm.convertToCached(s1, 2);
    ASSERT_TRUE(bm.grow(s2, TokenCount{64}));
    EXPECT_DEATH(bm.convertToCached(s2, 1), "watermark");
}

TEST(SharedBlocks, ZeroWatermarkIsFatal)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    EXPECT_DEATH(bm.setCacheWatermark(0), "watermark");
}

TEST(SharedBlocks, ReleaseAllDestroysSharedState)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot s1 = bm.open(1);
    KvSlot s2 = bm.open(2);
    bm.setCacheWatermark(5);
    ASSERT_TRUE(bm.grow(s1, TokenCount{64}));
    bm.convertToCached(s1, 4);
    ASSERT_TRUE(bm.grow(s2, TokenCount{16}));

    EXPECT_EQ(bm.releaseAll(), 5);
    EXPECT_EQ(bm.usedBlocks(), 0);
    EXPECT_EQ(bm.numOwners(), 0u);
    EXPECT_EQ(bm.sharedBlockCount(), 0);
    EXPECT_EQ(bm.cacheHeldBlocks(), 0);
    EXPECT_EQ(bm.evictableBlocks(), 0);
}

TEST(SharedBlocks, BlockIdsStayMonotonicAcrossReleaseAll)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot s1 = bm.open(1);
    bm.setCacheWatermark(5);
    ASSERT_TRUE(bm.grow(s1, TokenCount{32}));
    auto before = bm.convertToCached(s1, 2);
    bm.releaseAll();
    // The crash closed every slot; the restarted owner opens anew.
    EXPECT_FALSE(bm.owns(s1));
    s1 = bm.open(1);
    ASSERT_TRUE(bm.grow(s1, TokenCount{32}));
    auto after = bm.convertToCached(s1, 2);
    // A recycled id could alias a stale tree entry after a crash;
    // monotonic ids make that structurally impossible.
    EXPECT_GT(after.front(), before.back());
}

TEST(SharedBlocks, OwnerUsageAndTableReportSharedState)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot s1 = bm.open(1);
    KvSlot s2 = bm.open(2);
    bm.setCacheWatermark(5);
    ASSERT_TRUE(bm.grow(s1, TokenCount{40}));
    auto ids = bm.convertToCached(s1, 2);
    bm.attachShared(s2, ids);

    auto usage = bm.ownerUsage();
    ASSERT_EQ(usage.size(), 2u);
    EXPECT_EQ(usage[0].owner, 1u);
    EXPECT_EQ(usage[0].tokens, 8);
    EXPECT_EQ(usage[0].sharedTokens, 32);
    EXPECT_EQ(usage[0].sharedBlocks, 2);
    EXPECT_EQ(usage[1].owner, 2u);
    EXPECT_EQ(usage[1].tokens, 0);
    EXPECT_EQ(usage[1].sharedTokens, 32);

    auto table = bm.sharedBlockTable();
    ASSERT_EQ(table.size(), 2u);
    EXPECT_LT(table[0].id, table[1].id);
    for (const auto &info : table) {
        EXPECT_EQ(info.refs, 3);
        EXPECT_TRUE(info.cacheHeld);
    }

    EXPECT_EQ(bm.ownerSharedIds(s1), ids);
    EXPECT_EQ(bm.ownerSharedIds(s2), ids);
}

} // namespace
} // namespace qoserve
