/**
 * @file
 * Property and death tests for the BlockManager's slot-indexed
 * ownership table. A seeded random sequence runs every owner-level
 * operation over many owners, reusing released slots, and after each
 * step compares the manager with a plain id-keyed reference model
 * kept here: the slot table must be an exact re-indexing of the
 * id-keyed bookkeeping it replaced.
 */

#include "kvcache/block_manager.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/check_level.hh"
#include "simcore/rng.hh"

namespace qoserve {
namespace {

/** Id-keyed reference model of the manager's accounting. */
struct RefModel
{
    struct Owner
    {
        std::int64_t tokens = 0;
        std::int64_t blocks = 0;
        std::vector<KvBlockId> shared;
    };

    struct Shared
    {
        std::int64_t refs = 0;
        bool cacheHeld = false;
    };

    std::int64_t blockTokens = 0;
    std::int64_t totalBlocks = 0;
    std::int64_t watermark = 0;
    std::int64_t used = 0;
    KvBlockId nextId = 1;
    std::map<KvOwnerId, Owner> owners;
    std::map<KvBlockId, Shared> shared;

    std::int64_t freeBlocks() const { return totalBlocks - used; }

    std::int64_t
    cacheHeld() const
    {
        std::int64_t n = 0;
        for (const auto &[id, s] : shared)
            n += s.cacheHeld ? 1 : 0;
        return n;
    }

    std::int64_t
    evictable() const
    {
        std::int64_t n = 0;
        for (const auto &[id, s] : shared)
            n += s.cacheHeld && s.refs == 1 ? 1 : 0;
        return n;
    }

    std::int64_t available() const { return freeBlocks() + evictable(); }

    static std::int64_t
    fullPrivate(const Owner &o, std::int64_t block_tokens)
    {
        return o.tokens / block_tokens;
    }

    /** The eviction policy the test installs: lowest id first. */
    void
    evict(std::int64_t wanted)
    {
        std::int64_t freed = 0;
        for (auto it = shared.begin(); it != shared.end() && freed < wanted;) {
            if (it->second.cacheHeld && it->second.refs == 1) {
                it = shared.erase(it);
                --used;
                ++freed;
            } else {
                ++it;
            }
        }
    }

    bool
    grow(KvOwnerId id, std::int64_t n)
    {
        Owner &o = owners.at(id);
        std::int64_t target = (o.tokens + n + blockTokens - 1) / blockTokens;
        std::int64_t needed = target - o.blocks;
        if (needed > freeBlocks() && needed <= available())
            evict(needed - freeBlocks());
        if (needed > freeBlocks())
            return false;
        o.tokens += n;
        o.blocks += needed;
        used += needed;
        return true;
    }

    void
    release(KvOwnerId id)
    {
        Owner &o = owners.at(id);
        used -= o.blocks;
        for (KvBlockId b : o.shared) {
            Shared &s = shared.at(b);
            if (--s.refs == 0) {
                shared.erase(b);
                --used;
            }
        }
        owners.erase(id);
    }

    std::vector<KvBlockId>
    convert(KvOwnerId id, int count)
    {
        Owner &o = owners.at(id);
        std::vector<KvBlockId> ids;
        for (int i = 0; i < count; ++i) {
            KvBlockId b = nextId++;
            shared[b] = {2, true};
            o.shared.push_back(b);
            ids.push_back(b);
        }
        o.tokens -= count * blockTokens;
        o.blocks -= count;
        return ids;
    }

    void
    attach(KvOwnerId id, const std::vector<KvBlockId> &ids)
    {
        Owner &o = owners.at(id);
        for (KvBlockId b : ids) {
            ++shared.at(b).refs;
            o.shared.push_back(b);
        }
    }

    void
    dedup(KvOwnerId id, const std::vector<KvBlockId> &ids)
    {
        attach(id, ids);
        Owner &o = owners.at(id);
        auto count = static_cast<std::int64_t>(ids.size());
        o.tokens -= count * blockTokens;
        o.blocks -= count;
        used -= count;
    }

    bool
    drop(KvBlockId b)
    {
        Shared &s = shared.at(b);
        s.cacheHeld = false;
        if (--s.refs == 0) {
            shared.erase(b);
            --used;
            return true;
        }
        return false;
    }
};

/** Every observable of @p bm equals the model's (slots via @p slots). */
void
expectMatches(const BlockManager &bm, const RefModel &ref,
              const std::map<KvOwnerId, KvSlot> &slots)
{
    EXPECT_EQ(bm.usedBlocks(), ref.used);
    EXPECT_EQ(bm.freeBlocks(), ref.freeBlocks());
    EXPECT_EQ(bm.availableBlocks(), ref.available());
    EXPECT_EQ(bm.evictableBlocks(), ref.evictable());
    EXPECT_EQ(bm.cacheHeldBlocks(), ref.cacheHeld());
    EXPECT_EQ(bm.numOwners(), ref.owners.size());

    std::vector<KvOwnerUsage> usage = bm.ownerUsage();
    ASSERT_EQ(usage.size(), ref.owners.size());
    auto it = ref.owners.begin();
    for (const KvOwnerUsage &u : usage) {
        const auto &[id, o] = *it++;
        ASSERT_EQ(u.owner, id);
        EXPECT_EQ(u.slot, slots.at(id));
        EXPECT_EQ(u.tokens, o.tokens);
        EXPECT_EQ(u.blocks, o.blocks);
        EXPECT_EQ(u.sharedBlocks, static_cast<std::int64_t>(o.shared.size()));
        EXPECT_EQ(u.sharedTokens,
                  static_cast<std::int64_t>(o.shared.size()) *
                      ref.blockTokens);
        EXPECT_EQ(bm.ownerSharedIds(u.slot), o.shared);
    }

    std::vector<KvSharedBlockInfo> table = bm.sharedBlockTable();
    ASSERT_EQ(table.size(), ref.shared.size());
    auto sit = ref.shared.begin();
    for (const KvSharedBlockInfo &info : table) {
        const auto &[id, s] = *sit++;
        EXPECT_EQ(info.id, id);
        EXPECT_EQ(info.refs, s.refs);
        EXPECT_EQ(info.cacheHeld, s.cacheHeld);
    }
}

/** @p k distinct random picks from @p pool (k <= pool.size()). */
std::vector<KvBlockId>
pickDistinct(Rng &rng, std::vector<KvBlockId> pool, std::size_t k)
{
    std::vector<KvBlockId> out;
    for (std::size_t i = 0; i < k; ++i) {
        auto j = static_cast<std::size_t>(rng.nextU64() % pool.size());
        out.push_back(pool[j]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
    }
    return out;
}

void
runRandomOps(std::uint64_t seed, int block_tokens, int steps)
{
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                    << block_tokens << "-token blocks");
    constexpr std::int64_t kBlocks = 96;
    constexpr std::size_t kMaxOwners = 24;
    BlockManager bm(TokenCount{kBlocks * block_tokens},
                    TokenCount{block_tokens});
    bm.setCacheWatermark(kBlocks / 3);
    RefModel ref;
    ref.blockTokens = block_tokens;
    ref.totalBlocks = kBlocks;
    ref.watermark = kBlocks / 3;

    // The eviction handler the model mirrors: lowest block id first.
    bm.setEvictionHandler([&bm](std::int64_t wanted) {
        std::int64_t freed = 0;
        for (const KvSharedBlockInfo &info : bm.sharedBlockTable()) {
            if (freed >= wanted)
                break;
            if (info.cacheHeld && info.refs == 1 && bm.dropCacheRef(info.id))
                ++freed;
        }
        return freed;
    });

    Rng rng(seed);
    std::map<KvOwnerId, KvSlot> slots;
    // Mirror of the manager's free list: released slots come back
    // most-recent first; a fresh slot extends the table.
    std::vector<KvSlot> released;
    std::uint32_t fresh = 0;
    KvOwnerId next_owner = 1;

    auto random_owner = [&]() {
        auto it = slots.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.nextU64() % slots.size()));
        return it->first;
    };
    auto live_shared = [&](bool cache_held_only) {
        std::vector<KvBlockId> ids;
        for (const auto &[id, s] : ref.shared) {
            if (!cache_held_only || s.cacheHeld)
                ids.push_back(id);
        }
        return ids;
    };

    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        double roll = rng.uniform();
        if (slots.empty() || (roll < 0.12 && slots.size() < kMaxOwners)) {
            KvOwnerId id = next_owner++;
            KvSlot slot = bm.open(id);
            KvSlot expected;
            if (released.empty()) {
                expected = KvSlot{fresh++};
            } else {
                expected = released.back();
                released.pop_back();
            }
            ASSERT_EQ(slot, expected);
            slots[id] = slot;
            ref.owners[id];
        } else if (roll < 0.55) {
            KvOwnerId id = random_owner();
            std::int64_t n = rng.bernoulli(0.5) ? 1 : rng.uniformInt(0, 80);
            bool ok = bm.grow(slots[id], TokenCount{n});
            ASSERT_EQ(ok, ref.grow(id, n));
        } else if (roll < 0.70) {
            KvOwnerId id = random_owner();
            bm.release(slots[id]);
            ref.release(id);
            EXPECT_FALSE(bm.owns(slots[id]));
            released.push_back(slots[id]);
            slots.erase(id);
        } else if (roll < 0.80) {
            KvOwnerId id = random_owner();
            std::int64_t full =
                RefModel::fullPrivate(ref.owners[id], block_tokens);
            std::int64_t room = ref.watermark - ref.cacheHeld();
            if (std::min(full, room) < 1)
                continue;
            int count = static_cast<int>(
                rng.uniformInt(1, std::min<std::int64_t>({full, room, 4})));
            ASSERT_EQ(bm.convertToCached(slots[id], count),
                      ref.convert(id, count));
        } else if (roll < 0.88) {
            std::vector<KvBlockId> pool = live_shared(false);
            if (pool.empty())
                continue;
            KvOwnerId id = random_owner();
            auto k = static_cast<std::size_t>(rng.uniformInt(
                1, std::min<std::int64_t>(
                       3, static_cast<std::int64_t>(pool.size()))));
            std::vector<KvBlockId> ids = pickDistinct(rng, pool, k);
            bm.attachShared(slots[id], ids);
            ref.attach(id, ids);
        } else if (roll < 0.94) {
            std::vector<KvBlockId> pool = live_shared(false);
            KvOwnerId id = random_owner();
            std::int64_t full =
                RefModel::fullPrivate(ref.owners[id], block_tokens);
            if (pool.empty() || full < 1)
                continue;
            auto k = static_cast<std::size_t>(rng.uniformInt(
                1, std::min<std::int64_t>(
                       {3, full, static_cast<std::int64_t>(pool.size())})));
            std::vector<KvBlockId> ids = pickDistinct(rng, pool, k);
            bm.dedupToShared(slots[id], ids);
            ref.dedup(id, ids);
        } else if (roll < 0.995) {
            std::vector<KvBlockId> pool = live_shared(true);
            if (pool.empty())
                continue;
            KvBlockId b = pickDistinct(rng, pool, 1).front();
            ASSERT_EQ(bm.dropCacheRef(b), ref.drop(b));
        } else {
            // Crash: every slot closes and the table starts over.
            EXPECT_EQ(bm.releaseAll(), ref.used);
            ref.owners.clear();
            ref.shared.clear();
            ref.used = 0;
            for (const auto &[id, slot] : slots)
                EXPECT_FALSE(bm.owns(slot));
            slots.clear();
            released.clear();
            fresh = 0;
        }
        expectMatches(bm, ref, slots);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(KvSlotTableProperty, MatchesIdKeyedModel)
{
    runRandomOps(1, 16, 4000);
    runRandomOps(2, 16, 4000);
    runRandomOps(3, 5, 4000);
    runRandomOps(4, 1, 2000);
}

// --- Stale and never-opened slots ------------------------------------------

TEST(KvSlotTable, ReleasedSlotPanicsOnEveryOwnerOperation)
{
    if constexpr (!audit::cheapChecks())
        GTEST_SKIP() << "grow() checks slots only at the cheap level";
    BlockManager bm(TokenCount{320}, TokenCount{16});
    bm.setCacheWatermark(4);
    KvSlot live = bm.open(1);
    ASSERT_TRUE(bm.grow(live, TokenCount{32}));
    std::vector<KvBlockId> ids = bm.convertToCached(live, 1);
    KvSlot gone = bm.open(2);
    ASSERT_TRUE(bm.grow(gone, TokenCount{40}));
    bm.release(gone);

    EXPECT_DEATH(bm.grow(gone, TokenCount{1}),
                 "grow of unknown KV owner: slot 1 was released "
                 "\\(last owner 2");
    EXPECT_DEATH(bm.release(gone), "release of unknown KV owner");
    EXPECT_DEATH(bm.attachShared(gone, ids), "attach of unknown KV owner");
    EXPECT_DEATH(bm.dedupToShared(gone, ids), "dedup of unknown KV owner");
    EXPECT_DEATH(bm.convertToCached(gone, 1),
                 "conversion of unknown KV owner");
    EXPECT_DEATH(bm.ownedTokens(gone), "unknown KV owner");
}

TEST(KvSlotTable, NeverOpenedSlotPanicsOnEveryOwnerOperation)
{
    if constexpr (!audit::cheapChecks())
        GTEST_SKIP() << "grow() checks slots only at the cheap level";
    BlockManager bm(TokenCount{320}, TokenCount{16});
    KvSlot never{3};
    EXPECT_DEATH(bm.grow(never, TokenCount{1}),
                 "grow of unknown KV owner: slot 3 is not open");
    EXPECT_DEATH(bm.grow(KvSlot{}, TokenCount{1}), "unknown KV owner");
    EXPECT_DEATH(bm.release(never), "release of unknown KV owner");
    EXPECT_DEATH(bm.attachShared(never, {1}), "attach of unknown KV owner");
    EXPECT_DEATH(bm.convertToCached(never, 1),
                 "conversion of unknown KV owner");

    // A crash closes every slot, so pre-crash slots are never-opened
    // ones afterwards.
    KvSlot before = bm.open(1);
    bm.releaseAll();
    EXPECT_DEATH(bm.grow(before, TokenCount{1}), "is not open");
}

} // namespace
} // namespace qoserve
