/**
 * @file
 * Unit and property tests for the paged KV-cache block manager.
 */

#include "kvcache/block_manager.hh"

#include <gtest/gtest.h>

#include <vector>

#include "simcore/rng.hh"

namespace qoserve {
namespace {

TEST(BlockManager, CapacityRoundsDownToBlocks)
{
    BlockManager bm(TokenCount{100}, TokenCount{16});
    EXPECT_EQ(bm.totalBlocks(), 6);
    EXPECT_EQ(bm.freeBlocks(), 6);
    EXPECT_EQ(bm.blockTokens(), 16);
}

TEST(BlockManager, GrowAllocatesCeilOfTokens)
{
    BlockManager bm(TokenCount{1600}, TokenCount{16});
    KvSlot a = bm.open(1);
    EXPECT_TRUE(bm.grow(a, TokenCount{17})); // 2 blocks
    EXPECT_EQ(bm.ownedBlocks(a), 2);
    EXPECT_EQ(bm.ownedTokens(a), 17);
    EXPECT_EQ(bm.usedBlocks(), 2);
}

TEST(BlockManager, GrowReusesPartialBlockSlack)
{
    BlockManager bm(TokenCount{1600}, TokenCount{16});
    KvSlot a = bm.open(1);
    ASSERT_TRUE(bm.grow(a, TokenCount{10})); // 1 block, 6 tokens slack
    ASSERT_TRUE(bm.grow(a, TokenCount{6}));
    EXPECT_EQ(bm.ownedBlocks(a), 1);
    EXPECT_EQ(bm.usedBlocks(), 1);
    ASSERT_TRUE(bm.grow(a, TokenCount{1}));
    EXPECT_EQ(bm.ownedBlocks(a), 2);
}

TEST(BlockManager, GrowFailsAtomicallyWhenFull)
{
    BlockManager bm(TokenCount{64}, TokenCount{16}); // 4 blocks
    KvSlot a = bm.open(1);
    KvSlot b = bm.open(2);
    ASSERT_TRUE(bm.grow(a, TokenCount{48}));
    EXPECT_FALSE(bm.grow(b, TokenCount{32})); // needs 2, only 1 free
    EXPECT_EQ(bm.ownedTokens(b), 0);
    EXPECT_EQ(bm.ownedBlocks(b), 0);
    EXPECT_EQ(bm.freeBlocks(), 1);
    EXPECT_TRUE(bm.grow(b, TokenCount{16}));
}

TEST(BlockManager, GrowSucceedsExactlyWhenBlocksSuffice)
{
    BlockManager bm(TokenCount{96}, TokenCount{16}); // 6 blocks
    KvSlot a = bm.open(1);
    KvSlot b = bm.open(2);
    ASSERT_TRUE(bm.grow(a, TokenCount{50})); // 4 blocks, 2 free
    EXPECT_FALSE(bm.grow(b, TokenCount{33})); // needs 3 blocks
    EXPECT_FALSE(bm.grow(a, TokenCount{47})); // needs 3 more blocks
    EXPECT_TRUE(bm.grow(a, TokenCount{14}));  // fits in owner 1's slack
    EXPECT_EQ(bm.freeBlocks(), 2);
    EXPECT_TRUE(bm.grow(b, TokenCount{32})); // needs 2 blocks
    EXPECT_EQ(bm.freeBlocks(), 0);
}

TEST(BlockManager, ReleaseReturnsAllBlocks)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot a = bm.open(1);
    KvSlot b = bm.open(2);
    ASSERT_TRUE(bm.grow(a, TokenCount{90}));
    ASSERT_TRUE(bm.grow(b, TokenCount{30}));
    bm.release(a);
    EXPECT_FALSE(bm.owns(a));
    EXPECT_EQ(bm.usedBlocks(), 2);
    EXPECT_EQ(bm.numOwners(), 1u);
}

TEST(BlockManager, ReleaseUnknownOwnerPanics)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    EXPECT_DEATH(bm.release(KvSlot{42}), "unknown KV owner");
    EXPECT_DEATH(bm.release(KvSlot{}), "never allocated");
}

TEST(BlockManager, DoubleFreePanics)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    KvSlot a = bm.open(1);
    ASSERT_TRUE(bm.grow(a, TokenCount{32}));
    bm.release(a);
    EXPECT_DEATH(bm.release(a), "unknown KV owner.*last owner 1");
}

TEST(BlockManager, ConstructorRejectsBadArguments)
{
    EXPECT_EXIT({ BlockManager bm(TokenCount{0}, TokenCount{16}); },
                ::testing::ExitedWithCode(1), "capacity must be positive");
    EXPECT_EXIT({ BlockManager bm(TokenCount{-64}, TokenCount{16}); },
                ::testing::ExitedWithCode(1), "capacity must be positive");
    EXPECT_EXIT({ BlockManager bm(TokenCount{160}, TokenCount{0}); },
                ::testing::ExitedWithCode(1),
                "block size must be positive");
    EXPECT_EXIT({ BlockManager bm(TokenCount{160}, TokenCount{-16}); },
                ::testing::ExitedWithCode(1),
                "block size must be positive");
    EXPECT_EXIT({ BlockManager bm(TokenCount{8}, TokenCount{16}); },
                ::testing::ExitedWithCode(1), "below one");
}

TEST(BlockManager, OwnsTracksAllocationRecords)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    EXPECT_FALSE(bm.owns(KvSlot{0}));
    EXPECT_FALSE(bm.owns(KvSlot{}));
    KvSlot a = bm.open(1);
    EXPECT_TRUE(bm.owns(a));
    EXPECT_EQ(bm.ownerOf(a), 1u);
    ASSERT_TRUE(bm.grow(a, TokenCount{10}));
    bm.release(a);
    EXPECT_FALSE(bm.owns(a));

    // The released slot is the next one handed out, under the new id.
    KvSlot b = bm.open(2);
    EXPECT_EQ(b, a);
    EXPECT_EQ(bm.ownerOf(b), 2u);
    EXPECT_EQ(bm.ownedTokens(b), 0);
}

TEST(BlockManager, OwnerUsageSnapshotIsSortedAndExact)
{
    BlockManager bm(TokenCount{1600}, TokenCount{16});
    KvSlot s7 = bm.open(7);
    KvSlot s3 = bm.open(3);
    KvSlot s11 = bm.open(11);
    ASSERT_TRUE(bm.grow(s7, TokenCount{33}));
    ASSERT_TRUE(bm.grow(s3, TokenCount{16}));
    ASSERT_TRUE(bm.grow(s11, TokenCount{1}));
    auto usage = bm.ownerUsage();
    ASSERT_EQ(usage.size(), 3u);
    EXPECT_EQ(usage[0].owner, 3u);
    EXPECT_EQ(usage[0].slot, s3);
    EXPECT_EQ(usage[0].tokens, 16);
    EXPECT_EQ(usage[0].blocks, 1);
    EXPECT_EQ(usage[1].owner, 7u);
    EXPECT_EQ(usage[1].slot, s7);
    EXPECT_EQ(usage[1].blocks, 3);
    EXPECT_EQ(usage[2].owner, 11u);
    EXPECT_EQ(usage[2].slot, s11);
    std::int64_t sum = 0;
    for (const auto &u : usage)
        sum += u.blocks;
    EXPECT_EQ(sum, bm.usedBlocks());
}

TEST(BlockManager, ZeroGrowthIsFreeAndSucceeds)
{
    BlockManager bm(TokenCount{160}, TokenCount{16});
    EXPECT_TRUE(bm.grow(bm.open(1), TokenCount{0}));
    EXPECT_EQ(bm.usedBlocks(), 0);
}

TEST(BlockManager, UtilizationTracksUsage)
{
    BlockManager bm(TokenCount{160}, TokenCount{16}); // 10 blocks
    EXPECT_EQ(bm.usedBlocks(), 0);
    KvSlot a = bm.open(1);
    ASSERT_TRUE(bm.grow(a, TokenCount{80}));
    EXPECT_EQ(bm.usedBlocks(), 5);
    EXPECT_EQ(bm.freeBlocks(), 5);
    bm.release(a);
    EXPECT_EQ(bm.usedBlocks(), 0);
}

/** Property: random grow/release sequences keep accounting exact. */
TEST(BlockManagerProperty, RandomOperationsConserveBlocks)
{
    Rng rng(99);
    BlockManager bm(TokenCount{16384}, TokenCount{16});
    constexpr int num_owners = 40;
    std::vector<KvSlot> slots(num_owners);

    for (int step = 0; step < 5000; ++step) {
        auto owner = static_cast<std::size_t>(
            rng.uniformInt(0, num_owners - 1));
        if (rng.bernoulli(0.7)) {
            if (!slots[owner].valid())
                slots[owner] = bm.open(owner);
            auto tokens = rng.uniformInt(0, 200);
            std::int64_t before_free = bm.freeBlocks();
            std::int64_t target = bm.ownedTokens(slots[owner]) + tokens;
            std::int64_t need =
                (target + 15) / 16 - bm.ownedBlocks(slots[owner]);
            bool ok = bm.grow(slots[owner], TokenCount{tokens});
            EXPECT_EQ(ok, need <= before_free);
            if (ok) {
                EXPECT_EQ(bm.freeBlocks(), before_free - need);
            }
        } else if (slots[owner].valid()) {
            bm.release(slots[owner]);
            EXPECT_FALSE(bm.owns(slots[owner]));
            slots[owner] = KvSlot{};
        }

        // Invariant: used + free == total, and per-owner blocks
        // cover per-owner tokens exactly.
        EXPECT_EQ(bm.usedBlocks() + bm.freeBlocks(), bm.totalBlocks());
        for (KvSlot slot : slots) {
            if (!slot.valid())
                continue;
            std::int64_t t = bm.ownedTokens(slot);
            std::int64_t b = bm.ownedBlocks(slot);
            EXPECT_LE(t, b * bm.blockTokens());
            EXPECT_GT(t, (b - 1) * bm.blockTokens() - 1);
        }
    }
}

} // namespace
} // namespace qoserve
