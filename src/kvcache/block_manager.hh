/**
 * @file
 * Paged KV-cache block manager.
 *
 * Models vLLM-style PagedAttention memory management: the replica's
 * KV capacity is divided into fixed-size blocks; each request owns a
 * chain of blocks covering its cached tokens. The scheduler consults
 * the manager before adding prefill tokens or admitting new decodes,
 * which is what creates memory pressure and bounds batch size in the
 * simulation — the same constraint the paper's selective-preemption
 * policy is designed around (§3.4).
 *
 * Ownership lives in a dense table indexed by slot. Whoever first
 * puts KV on a request — the scheduler on its first prefill chunk,
 * the replica before a prefix-cache attach, the decode pool at
 * admission — opens a slot and stores it in the Request; release()
 * closes it again and the next open() reuses it. Every decode
 * iteration grows every running request by one token, so that grow
 * is an inline index into the table: no hash lookup, and no block
 * arithmetic unless the private tail block is full.
 *
 * On top of the private per-owner chains sits a shared-block layer
 * used by the prefix cache (src/prefixcache): a full block computed
 * by one request can be converted into a reference-counted shared
 * block that later requests attach to instead of recomputing it. A
 * shared block's refcount counts every request holding it plus one
 * for the cache itself while the block stays in the radix tree; a
 * block whose only reference is the cache is *evictable* and can be
 * reclaimed under memory pressure through the eviction handler.
 */

#ifndef QOSERVE_KVCACHE_BLOCK_MANAGER_HH
#define QOSERVE_KVCACHE_BLOCK_MANAGER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/check_level.hh"
#include "core/units.hh"

namespace qoserve {

/** Identifier of the request owning a block chain. */
using KvOwnerId = std::uint64_t;

/** Identifier of a shared (prefix-cached) KV block. */
using KvBlockId = std::uint64_t;

/** One owner's usage in an audit snapshot (see ownerUsage()). */
struct KvOwnerUsage
{
    KvOwnerId owner = 0;
    KvSlot slot;
    std::int64_t tokens = 0;
    std::int64_t blocks = 0;

    /** Tokens the owner holds through shared (prefix-cached) blocks. */
    std::int64_t sharedTokens = 0;

    /** Shared blocks the owner references. */
    std::int64_t sharedBlocks = 0;
};

/** One shared block's state in an audit snapshot (sharedBlockTable()). */
struct KvSharedBlockInfo
{
    KvBlockId id = 0;
    std::int64_t refs = 0;
    bool cacheHeld = false;
};

/**
 * Fixed-size-block KV-cache allocator.
 *
 * Tracks, per owner, how many tokens are cached and how many blocks
 * that consumes. Allocation is all-or-nothing: a request either gets
 * blocks for all requested tokens or none.
 *
 * Owners are addressed by slot, never by id: open() hands out a
 * dense index into the ownership table (recycled through a free
 * list), the caller keeps it beside the request, and every later
 * call goes straight to that record. Each record still carries its
 * owner id, so snapshots and messages speak in request ids. Using a
 * slot that is not open (never opened, or already released) panics.
 */
class BlockManager
{
  public:
    /**
     * Callback invoked by grow() when free blocks alone cannot cover
     * a request but evictable cached blocks exist. Receives the
     * number of blocks wanted and returns the number actually freed.
     */
    using EvictionHandler = std::function<std::int64_t(std::int64_t)>;

    /**
     * @param capacity_tokens Total KV capacity in tokens; must be
     *        positive and hold at least one block (fatal otherwise —
     *        a zero-capacity cache is a configuration error).
     * @param block_tokens Tokens per block (vLLM default: 16); must
     *        be positive.
     */
    explicit BlockManager(TokenCount capacity_tokens,
                          TokenCount block_tokens = TokenCount{16});

    /** Total block count. */
    std::int64_t totalBlocks() const { return totalBlocks_; }

    /** Blocks currently free. */
    std::int64_t freeBlocks() const { return totalBlocks_ - usedBlocks_; }

    /** Blocks currently allocated (private chains plus shared blocks). */
    std::int64_t usedBlocks() const { return usedBlocks_; }

    /**
     * Blocks obtainable without preempting any request: free blocks
     * plus cached blocks whose only reference is the cache. Equals
     * freeBlocks() whenever the prefix cache is disabled or empty.
     */
    std::int64_t availableBlocks() const
    {
        return freeBlocks() + evictableBlocks_;
    }

    /** Tokens per block. */
    int blockTokens() const { return blockTokens_; }

    /**
     * Open an empty ownership record for @p owner and return its
     * slot. The most recently released slot is reused first.
     */
    KvSlot open(KvOwnerId owner);

    /** True if @p slot names an open record (possibly empty). */
    bool owns(KvSlot slot) const
    {
        return slot.value() < owners_.size() &&
               owners_[slot.value()].open;
    }

    /** Owner id recorded in open slot @p slot. */
    KvOwnerId ownerOf(KvSlot slot) const
    {
        return record(slot, "owner lookup").owner;
    }

    /**
     * Extend @p slot's cached tokens by @p new_tokens.
     *
     * Growth that fits the slack of the private tail block — every
     * decode token but one per block — touches only the slot's
     * record. Otherwise, if free blocks alone cannot satisfy the
     * request but evictable cached blocks exist, the eviction handler
     * (when installed) is asked to reclaim the shortfall first.
     *
     * @return True on success; false (with no state change beyond any
     *         evictions performed) if the required blocks are not
     *         available.
     */
    bool grow(KvSlot slot, TokenCount new_tokens)
    {
        Ownership *o;
        if constexpr (audit::cheapChecks())
            o = &record(slot, "grow");
        else
            o = &owners_[slot.value()];
        std::int64_t n = new_tokens.value();
        // Private blocks always cover their tokens with less than one
        // block of slack, so growth within the tail needs no block.
        if (n >= 0 && o->tokens + n <= o->blocks * blockTokens_) {
            o->tokens += n;
            return true;
        }
        return growBlocks(*o, new_tokens);
    }

    /** Tokens privately cached in @p slot. */
    std::int64_t ownedTokens(KvSlot slot) const
    {
        return record(slot, "token query").tokens;
    }

    /** Private blocks currently held by @p slot. */
    std::int64_t ownedBlocks(KvSlot slot) const
    {
        return record(slot, "block query").blocks;
    }

    /**
     * Release every block held by @p slot and close the slot,
     * dropping its references on shared blocks (a shared block whose
     * refcount reaches zero is freed; one left holding only the cache
     * reference becomes evictable).
     *
     * Releasing a slot that is not open — a double free, or a slot
     * never opened — panics: both point at scheduler bookkeeping
     * corruption that would otherwise decay silently into wrong
     * capacity numbers.
     */
    void release(KvSlot slot);

    /**
     * Release every block of every owner and close every slot — the
     * crash path: a failed replica's cache dies with the process, so
     * no per-owner bookkeeping survives to double-free later. Shared
     * blocks die too; the prefix cache must drop its tree separately
     * (it holds block ids, not block state).
     *
     * @return Blocks freed.
     */
    std::int64_t releaseAll();

    /** Number of open slots. */
    std::size_t numOwners() const
    {
        return owners_.size() - freeSlots_.size();
    }

    /**
     * Per-owner usage snapshot for the invariant auditor and
     * diagnostics, one entry per open slot, sorted by owner id
     * (deterministic order).
     */
    std::vector<KvOwnerUsage> ownerUsage() const;

    // ------------------------------------------------------------------
    // Shared-block layer (prefix cache support).
    // ------------------------------------------------------------------

    /** Install the eviction handler (prefix cache reclaim hook). */
    void setEvictionHandler(EvictionHandler handler)
    {
        evictionHandler_ = std::move(handler);
    }

    /**
     * Cap on cache-held blocks. convertToCached() refuses to push the
     * cache-held count past the watermark; the prefix cache evicts to
     * stay under it. Must be at least one block.
     */
    void setCacheWatermark(std::int64_t blocks);

    /** Cache-held block cap (0 until configured). */
    std::int64_t cacheWatermark() const { return cacheWatermark_; }

    /** Shared blocks currently held by the cache (in the radix tree). */
    std::int64_t cacheHeldBlocks() const { return cacheHeldBlocks_; }

    /** Cache-held blocks whose only reference is the cache. */
    std::int64_t evictableBlocks() const { return evictableBlocks_; }

    /** Total shared blocks (cache-held or not). */
    std::int64_t sharedBlockCount() const
    {
        return static_cast<std::int64_t>(shared_.size());
    }

    /**
     * Convert @p count full blocks of @p slot's private region into
     * cache-held shared blocks the owner keeps referencing. The
     * owner must hold at least @p count full private blocks and the
     * conversion must fit under the cache watermark (both enforced —
     * callers size the request first). No physical blocks move, so
     * usedBlocks() is unchanged.
     *
     * @return The new block ids, in prefix order (monotonic ids, so
     *         parents always sort before children — the eviction
     *         tie-break relies on this).
     */
    std::vector<KvBlockId> convertToCached(KvSlot slot, int count);

    /**
     * Add @p slot's owner as a reference holder on each of @p ids (a
     * cache hit: the owner reuses the blocks instead of recomputing
     * them). Each id must name a live shared block.
     */
    void attachShared(KvSlot slot, const std::vector<KvBlockId> &ids);

    /**
     * Replace @p slot's private copies of already-cached blocks with
     * references to the shared copies in @p ids, freeing the
     * duplicate physical blocks (one full private block per id). The
     * owner must hold at least ids.size() full private blocks.
     */
    void dedupToShared(KvSlot slot, const std::vector<KvBlockId> &ids);

    /**
     * Drop the cache's reference on shared block @p id (eviction).
     * Only valid while the block is cache-held.
     *
     * @return True if the block's refcount reached zero and its
     *         physical block was freed.
     */
    bool dropCacheRef(KvBlockId id);

    /** Refcount of shared block @p id (0 if unknown). */
    std::int64_t sharedRefs(KvBlockId id) const;

    /** Tokens @p slot holds through shared blocks. */
    std::int64_t sharedTokens(KvSlot slot) const
    {
        return record(slot, "shared-token query").sharedTokens;
    }

    /** Shared blocks @p slot references. */
    std::int64_t ownerSharedBlocks(KvSlot slot) const
    {
        return static_cast<std::int64_t>(
            record(slot, "shared-block query").sharedIds.size());
    }

    /** Shared-block ids @p slot references. */
    const std::vector<KvBlockId> &ownerSharedIds(KvSlot slot) const
    {
        return record(slot, "shared-id query").sharedIds;
    }

    /**
     * Shared-block snapshot for the invariant auditor, sorted by
     * block id (deterministic order).
     */
    std::vector<KvSharedBlockInfo> sharedBlockTable() const;

  private:
    /** One slot of the ownership table; 64 bytes, one cache line. */
    struct alignas(64) Ownership
    {
        std::int64_t tokens = 0;
        std::int64_t blocks = 0;
        std::int64_t sharedTokens = 0;
        KvOwnerId owner = 0;
        std::vector<KvBlockId> sharedIds;
        bool open = false;
    };

    struct SharedBlock
    {
        std::int64_t refs = 0;
        bool cacheHeld = false;
    };

    /** The open record at @p slot; panics, naming @p op, otherwise. */
    const Ownership &
    record(KvSlot slot, const char *op) const
    {
        if (!owns(slot)) [[unlikely]]
            notOpen(slot, op);
        return owners_[slot.value()];
    }

    Ownership &
    record(KvSlot slot, const char *op)
    {
        return const_cast<Ownership &>(std::as_const(*this).record(slot, op));
    }

    [[noreturn]] void notOpen(KvSlot slot, const char *op) const;

    /** grow() past the tail block's slack: allocates blocks. */
    bool growBlocks(Ownership &o, TokenCount new_tokens);

    /** Blocks needed to extend @p o by @p new_tokens, counting the
     *  slack of its partially filled tail block. Shared blocks are
     *  always full, so only the private region enters. */
    std::int64_t blocksNeeded(const Ownership &o,
                              TokenCount new_tokens) const;

    int blockTokens_;
    std::int64_t totalBlocks_;
    std::int64_t usedBlocks_ = 0;

    /** Ownership table indexed by slot, and its closed slots. */
    std::vector<Ownership> owners_;
    std::vector<std::uint32_t> freeSlots_;

    std::unordered_map<KvBlockId, SharedBlock> shared_;
    KvBlockId nextSharedId_ = 1;
    std::int64_t cacheHeldBlocks_ = 0;
    std::int64_t evictableBlocks_ = 0;
    std::int64_t cacheWatermark_ = 0;
    EvictionHandler evictionHandler_;
};

} // namespace qoserve

#endif // QOSERVE_KVCACHE_BLOCK_MANAGER_HH
