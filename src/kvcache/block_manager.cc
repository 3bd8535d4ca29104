/**
 * @file
 * Paged KV-cache block manager implementation.
 */

#include "kvcache/block_manager.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace qoserve {

BlockManager::BlockManager(TokenCount capacity, TokenCount block_size)
    : blockTokens_(static_cast<int>(block_size.value()))
{
    std::int64_t capacity_tokens = capacity.value();
    int block_tokens = blockTokens_;
    // Constructor arguments come from deployment configuration, so a
    // bad value is a user error (fatal), not a library bug (panic).
    if (capacity_tokens <= 0) {
        QOSERVE_FATAL("KV capacity must be positive, got ",
                      capacity_tokens, " tokens");
    }
    if (block_tokens <= 0) {
        QOSERVE_FATAL("KV block size must be positive, got ",
                      block_tokens, " tokens");
    }
    totalBlocks_ = capacity_tokens / block_tokens;
    if (totalBlocks_ <= 0) {
        QOSERVE_FATAL("KV capacity of ", capacity_tokens,
                      " tokens is below one ", block_tokens,
                      "-token block");
    }
}

void
BlockManager::notOpen(KvSlot slot, const char *op) const
{
    if (slot.value() < owners_.size()) {
        QOSERVE_PANIC(op, " of unknown KV owner: slot ", slot,
                      " was released (last owner ",
                      owners_[slot.value()].owner,
                      "; double free, or a stale slot)");
    }
    QOSERVE_PANIC(op, " of unknown KV owner: slot ", slot,
                  " is not open (the request never allocated, or a "
                  "crash released every slot)");
}

KvSlot
BlockManager::open(KvOwnerId owner)
{
    std::uint32_t index;
    if (freeSlots_.empty()) {
        index = static_cast<std::uint32_t>(owners_.size());
        QOSERVE_ASSERT(KvSlot{index}.valid(), "KV slot table overflow");
        owners_.emplace_back();
    } else {
        index = freeSlots_.back();
        freeSlots_.pop_back();
    }
    Ownership &o = owners_[index];
    o.owner = owner;
    o.open = true;
    return KvSlot{index};
}

std::int64_t
BlockManager::blocksNeeded(const Ownership &o, TokenCount growth) const
{
    std::int64_t new_tokens = growth.value();
    QOSERVE_ASSERT(new_tokens >= 0, "negative token growth");
    std::int64_t target_tokens = o.tokens + new_tokens;
    std::int64_t target_blocks =
        (target_tokens + blockTokens_ - 1) / blockTokens_;
    return target_blocks - o.blocks;
}

bool
BlockManager::growBlocks(Ownership &o, TokenCount growth)
{
    std::int64_t needed = blocksNeeded(o, growth);
    // Reclaim cold cached blocks only when that can actually satisfy
    // the request — a doomed grow must not drain the cache for free.
    // The handler only drops cache references, so it never touches
    // the ownership table and `o` stays valid across the call.
    if (needed > freeBlocks() && needed <= availableBlocks() &&
        evictionHandler_) {
        evictionHandler_(needed - freeBlocks());
    }
    if (needed > freeBlocks())
        return false;
    o.tokens += growth.value();
    o.blocks += needed;
    usedBlocks_ += needed;
    return true;
}

void
BlockManager::release(KvSlot slot)
{
    Ownership &o = record(slot, "release");
    usedBlocks_ -= o.blocks;
    QOSERVE_ASSERT(usedBlocks_ >= 0, "block accounting underflow");
    for (KvBlockId id : o.sharedIds) {
        auto sit = shared_.find(id);
        QOSERVE_ASSERT(sit != shared_.end(),
                       "owner references unknown shared block");
        SharedBlock &b = sit->second;
        --b.refs;
        if (b.refs == 0) {
            QOSERVE_ASSERT(!b.cacheHeld,
                           "cache-held block lost its cache reference");
            shared_.erase(sit);
            --usedBlocks_;
        } else if (b.cacheHeld && b.refs == 1) {
            ++evictableBlocks_;
        }
    }
    // Keep the owner id (for the stale-slot panic) and the shared-id
    // capacity (for the next owner); reset the rest.
    o.tokens = 0;
    o.blocks = 0;
    o.sharedTokens = 0;
    o.sharedIds.clear();
    o.open = false;
    freeSlots_.push_back(slot.value());
}

std::int64_t
BlockManager::releaseAll()
{
    std::int64_t freed = usedBlocks_;
    owners_.clear();
    freeSlots_.clear();
    shared_.clear();
    cacheHeldBlocks_ = 0;
    evictableBlocks_ = 0;
    usedBlocks_ = 0;
    return freed;
}

std::vector<KvOwnerUsage>
BlockManager::ownerUsage() const
{
    std::vector<KvOwnerUsage> usage;
    usage.reserve(numOwners());
    for (std::size_t i = 0; i < owners_.size(); ++i) {
        const Ownership &o = owners_[i];
        if (!o.open)
            continue;
        usage.push_back({o.owner, KvSlot{static_cast<std::uint32_t>(i)},
                         o.tokens, o.blocks, o.sharedTokens,
                         static_cast<std::int64_t>(o.sharedIds.size())});
    }
    std::sort(usage.begin(), usage.end(),
              [](const KvOwnerUsage &a, const KvOwnerUsage &b) {
                  return a.owner < b.owner;
              });
    return usage;
}

void
BlockManager::setCacheWatermark(std::int64_t blocks)
{
    if (blocks < 1) {
        QOSERVE_FATAL("prefix-cache watermark must be at least one "
                      "block, got ", blocks);
    }
    cacheWatermark_ = blocks;
}

std::vector<KvBlockId>
BlockManager::convertToCached(KvSlot slot, int count)
{
    QOSERVE_ASSERT(count > 0, "conversion of zero blocks");
    Ownership &o = record(slot, "conversion");
    // Only full blocks are shareable: count must fit in the owner's
    // whole private blocks, not its partially-filled tail.
    QOSERVE_ASSERT(o.tokens / blockTokens_ >= count,
                   "conversion exceeds owner's full private blocks");
    QOSERVE_ASSERT(cacheHeldBlocks_ + count <= cacheWatermark_,
                   "conversion would exceed the cache watermark");
    std::vector<KvBlockId> ids;
    ids.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        KvBlockId id = nextSharedId_++;
        // Two references: the owner keeps using the block, and the
        // cache now holds it in the radix tree.
        shared_.emplace(id, SharedBlock{2, true});
        ids.push_back(id);
        o.sharedIds.push_back(id);
    }
    std::int64_t moved_tokens =
        static_cast<std::int64_t>(count) * blockTokens_;
    o.tokens -= moved_tokens;
    o.blocks -= count;
    o.sharedTokens += moved_tokens;
    cacheHeldBlocks_ += count;
    QOSERVE_ASSERT(o.tokens >= 0 && o.blocks >= 0,
                   "conversion drained the private region below zero");
    return ids;
}

void
BlockManager::attachShared(KvSlot slot, const std::vector<KvBlockId> &ids)
{
    QOSERVE_ASSERT(!ids.empty(), "attach of zero shared blocks");
    Ownership &o = record(slot, "attach");
    for (KvBlockId id : ids) {
        auto it = shared_.find(id);
        if (it == shared_.end())
            QOSERVE_PANIC("attach of unknown shared block ", id);
        SharedBlock &b = it->second;
        if (b.cacheHeld && b.refs == 1)
            --evictableBlocks_;
        ++b.refs;
        o.sharedIds.push_back(id);
    }
    o.sharedTokens +=
        static_cast<std::int64_t>(ids.size()) * blockTokens_;
}

void
BlockManager::dedupToShared(KvSlot slot, const std::vector<KvBlockId> &ids)
{
    QOSERVE_ASSERT(!ids.empty(), "dedup of zero blocks");
    Ownership &o = record(slot, "dedup");
    auto count = static_cast<std::int64_t>(ids.size());
    QOSERVE_ASSERT(o.tokens / blockTokens_ >= count,
                   "dedup exceeds owner's full private blocks");
    for (KvBlockId id : ids) {
        auto sit = shared_.find(id);
        if (sit == shared_.end())
            QOSERVE_PANIC("dedup onto unknown shared block ", id);
        SharedBlock &b = sit->second;
        if (b.cacheHeld && b.refs == 1)
            --evictableBlocks_;
        ++b.refs;
        o.sharedIds.push_back(id);
    }
    std::int64_t moved_tokens = count * blockTokens_;
    o.tokens -= moved_tokens;
    o.blocks -= count;
    o.sharedTokens += moved_tokens;
    usedBlocks_ -= count;
    QOSERVE_ASSERT(usedBlocks_ >= 0, "block accounting underflow");
}

bool
BlockManager::dropCacheRef(KvBlockId id)
{
    auto it = shared_.find(id);
    if (it == shared_.end())
        QOSERVE_PANIC("cache drop of unknown shared block ", id);
    SharedBlock &b = it->second;
    if (!b.cacheHeld)
        QOSERVE_PANIC("cache drop of block ", id,
                      " the cache does not hold");
    if (b.refs == 1)
        --evictableBlocks_;
    b.cacheHeld = false;
    --cacheHeldBlocks_;
    --b.refs;
    if (b.refs == 0) {
        shared_.erase(it);
        --usedBlocks_;
        QOSERVE_ASSERT(usedBlocks_ >= 0, "block accounting underflow");
        return true;
    }
    return false;
}

std::int64_t
BlockManager::sharedRefs(KvBlockId id) const
{
    auto it = shared_.find(id);
    return it == shared_.end() ? 0 : it->second.refs;
}

std::vector<KvSharedBlockInfo>
BlockManager::sharedBlockTable() const
{
    std::vector<KvSharedBlockInfo> table;
    table.reserve(shared_.size());
    // Snapshot only; the sort below makes the result independent of
    // hash order.
    // qoserve-lint: allow(unordered-iter)
    for (const auto &[id, b] : shared_)
        table.push_back({id, b.refs, b.cacheHeld});
    std::sort(table.begin(), table.end(),
              [](const KvSharedBlockInfo &a, const KvSharedBlockInfo &b) {
                  return a.id < b.id;
              });
    return table;
}

} // namespace qoserve
