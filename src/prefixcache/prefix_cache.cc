/**
 * @file
 * Shared-prefix KV cache implementation.
 */

#include "prefixcache/prefix_cache.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace qoserve {

namespace {

constexpr std::uint64_t kKeySeed = 0x243F6A8885A308D3ull;
constexpr std::uint64_t kUniqueSalt = 0x9E3779B97F4A7C15ull;

/** SplitMix64 finalizer: the same bijective mixer the Rng uses. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
chain(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ mix64(v));
}

} // namespace

void
PrefixCacheConfig::validate() const
{
    if (!(capacityFrac > 0.0 && capacityFrac <= 1.0)) {
        QOSERVE_FATAL("prefix-cache capacity fraction must be in "
                      "(0, 1], got ", capacityFrac);
    }
}

std::vector<std::uint64_t>
prefixBlockKeys(const RequestSpec &spec, TokenCount block_size)
{
    int block_tokens = static_cast<int>(block_size.value());
    QOSERVE_ASSERT(block_tokens > 0, "non-positive block size");
    const int full = spec.promptTokens / block_tokens;
    std::vector<std::uint64_t> keys;
    if (full <= 0)
        return keys;
    keys.reserve(static_cast<std::size_t>(full));

    // A prompt without segments is wholly unique content: key it by
    // the request id so it never collides with another request.
    PromptSegment unique_seg{chain(kUniqueSalt, spec.id),
                             spec.promptTokens};
    const PromptSegment *segs = &unique_seg;
    std::size_t nsegs = 1;
    if (!spec.promptSegments.empty()) {
        segs = spec.promptSegments.data();
        nsegs = spec.promptSegments.size();
    }

    std::uint64_t h = kKeySeed;
    int tokens = 0;
    for (std::size_t s = 0; s < nsegs; ++s) {
        for (int i = 0; i < segs[s].tokens; ++i) {
            h = chain(chain(h, segs[s].contentId),
                      static_cast<std::uint64_t>(i));
            ++tokens;
            if (tokens % block_tokens == 0) {
                keys.push_back(h);
                if (keys.size() == static_cast<std::size_t>(full))
                    return keys;
            }
        }
    }
    return keys;
}

PrefixCache::PrefixCache(BlockManager &kv, const PrefixCacheConfig &cfg)
    : kv_(kv), cfg_(cfg)
{
    if (!cfg_.enabled)
        return;
    cfg_.validate();
    auto watermark = static_cast<std::int64_t>(
        static_cast<double>(kv_.totalBlocks()) * cfg_.capacityFrac);
    kv_.setCacheWatermark(std::max<std::int64_t>(1, watermark));
    kv_.setEvictionHandler(
        [this](std::int64_t wanted) { return evictBlocks(wanted); });
}

std::size_t
PrefixCache::walk(const std::vector<std::uint64_t> &keys, bool touch,
                  SimTime now)
{
    std::size_t depth = 0;
    for (std::uint64_t key : keys) {
        auto it = nodes_.find(key);
        if (it == nodes_.end())
            break;
        Node &n = it->second;
        if (touch && n.lastUse != now) {
            lru_.erase({n.lastUse, n.block});
            n.lastUse = now;
            lru_.insert({now, n.block});
        }
        ++depth;
    }
    return depth;
}

std::size_t
PrefixCache::matchDepth(const std::vector<std::uint64_t> &keys) const
{
    std::size_t depth = 0;
    for (std::uint64_t key : keys) {
        if (nodes_.find(key) == nodes_.end())
            break;
        ++depth;
    }
    return depth;
}

int
PrefixCache::attach(KvSlot slot, const RequestSpec &spec, SimTime now)
{
    if (!cfg_.enabled)
        return 0;
    ++stats_.lookups;
    const int B = kv_.blockTokens();
    auto keys = prefixBlockKeys(spec, TokenCount{B});
    std::size_t depth = walk(keys, true, now);
    if (depth == 0)
        return 0;

    // Cap one token short of the prompt: at least one real prefill
    // token must remain so the scheduler's final-chunk machinery (and
    // first-token emission) runs unchanged.
    auto matched = static_cast<std::int64_t>(depth) * B;
    std::int64_t tokens =
        std::min<std::int64_t>(matched, spec.promptTokens - 1);
    int full = static_cast<int>(tokens / B);
    int tail = static_cast<int>(tokens % B);
    if (tail > 0 && kv_.freeBlocks() < 1) {
        // The COW copy needs a free block *without* eviction (an
        // eviction here could reclaim the very block being copied);
        // drop the partial tail and attach whole blocks only.
        tokens = static_cast<std::int64_t>(full) * B;
        tail = 0;
        if (tokens == 0)
            return 0;
    }

    if (full > 0) {
        std::vector<KvBlockId> ids;
        ids.reserve(static_cast<std::size_t>(full));
        for (int i = 0; i < full; ++i)
            ids.push_back(nodes_.find(keys[i])->second.block);
        kv_.attachShared(slot, ids);
    }
    if (tail > 0) {
        bool grown = kv_.grow(slot, TokenCount{tail});
        QOSERVE_ASSERT(grown, "COW copy failed after free-block check");
        ++stats_.cowCopies;
    }
    ++stats_.hits;
    stats_.tokensAttached += tokens;
    if (trace_ != nullptr)
        trace_->emit(TraceEventKind::CacheHit, spec.id, tokens);
    return static_cast<int>(tokens);
}

void
PrefixCache::insert(KvSlot slot, const RequestSpec &spec, SimTime now)
{
    if (!cfg_.enabled)
        return;
    const int B = kv_.blockTokens();
    auto keys = prefixBlockKeys(spec, TokenCount{B});
    if (keys.empty())
        return;

    // Make watermark room for the blocks missing from the tree.
    // Eviction may reclaim cold *matched* blocks too (they are then
    // missing again), so recompute the match every round; when the
    // cache cannot shrink further, cache only the leading part.
    std::size_t cache_to = keys.size();
    for (;;) {
        std::size_t depth = matchDepth(keys);
        auto missing = static_cast<std::int64_t>(cache_to) -
                       static_cast<std::int64_t>(depth);
        std::int64_t room = kv_.cacheWatermark() - kv_.cacheHeldBlocks();
        if (missing <= room)
            break;
        if (evictBlocks(1) == 0) {
            cache_to = depth + static_cast<std::size_t>(room);
            break;
        }
    }

    std::size_t match = walk(keys, true, now);

    // Deduplicate: the owner holds private copies of any matched
    // block it did not attach at admission (the tree grew after its
    // lookup, or it recomputed after preemption); move its reference
    // onto the shared copy and free the duplicate.
    auto attached = kv_.ownerSharedBlocks(slot);
    if (static_cast<std::int64_t>(match) > attached) {
        std::vector<KvBlockId> dups;
        dups.reserve(match - static_cast<std::size_t>(attached));
        for (std::size_t i = static_cast<std::size_t>(attached);
             i < match; ++i)
            dups.push_back(nodes_.find(keys[i])->second.block);
        kv_.dedupToShared(slot, dups);
    }

    if (match >= cache_to)
        return;
    int count = static_cast<int>(cache_to - match);
    std::vector<KvBlockId> ids = kv_.convertToCached(slot, count);
    std::uint64_t parent = match == 0 ? kNoParent : keys[match - 1];
    for (int i = 0; i < count; ++i) {
        std::uint64_t key = keys[match + static_cast<std::size_t>(i)];
        Node node;
        node.block = ids[static_cast<std::size_t>(i)];
        node.parentKey = parent;
        node.lastUse = now;
        nodes_.emplace(key, node);
        keyOfBlock_.emplace(node.block, key);
        lru_.insert({now, node.block});
        if (parent != kNoParent)
            ++nodes_.find(parent)->second.children;
        parent = key;
    }
    stats_.blocksInserted += count;
}

int
PrefixCache::probe(const RequestSpec &spec) const
{
    if (!cfg_.enabled)
        return 0;
    const int B = kv_.blockTokens();
    std::size_t depth = matchDepth(prefixBlockKeys(spec, TokenCount{B}));
    if (depth == 0)
        return 0;
    auto matched = static_cast<std::int64_t>(depth) * B;
    return static_cast<int>(
        std::min<std::int64_t>(matched, spec.promptTokens - 1));
}

std::int64_t
PrefixCache::evictBlocks(std::int64_t wanted)
{
    std::int64_t freed = 0;
    while (freed < wanted) {
        // Scan the LRU order for the oldest unreferenced leaf. A
        // freshly exposed parent re-enters consideration on the next
        // round (its lastUse is never older than its children's, so
        // restarting the scan stays consistent with LRU order).
        bool found = false;
        std::pair<SimTime, KvBlockId> entry{};
        std::uint64_t key = 0;
        for (const auto &candidate : lru_) {
            auto kit = keyOfBlock_.find(candidate.second);
            QOSERVE_ASSERT(kit != keyOfBlock_.end(),
                           "LRU entry without a tree node");
            const Node &n = nodes_.find(kit->second)->second;
            if (n.children == 0 && kv_.sharedRefs(n.block) == 1) {
                entry = candidate;
                key = kit->second;
                found = true;
                break;
            }
        }
        if (!found)
            break;
        const Node &victim = nodes_.find(key)->second;
        if (victim.parentKey != kNoParent)
            --nodes_.find(victim.parentKey)->second.children;
        KvBlockId block = victim.block;
        nodes_.erase(key);
        keyOfBlock_.erase(block);
        lru_.erase(entry);
        bool phys_freed = kv_.dropCacheRef(block);
        QOSERVE_ASSERT(phys_freed,
                       "evicted a block something still references");
        ++freed;
        ++stats_.blocksEvicted;
    }
    if (freed > 0 && trace_ != nullptr)
        trace_->emit(TraceEventKind::CacheEvict, kNoTraceRequest, freed);
    return freed;
}

void
PrefixCache::dropAll()
{
    if (!cfg_.enabled)
        return;
    nodes_.clear();
    keyOfBlock_.clear();
    lru_.clear();
    ++stats_.treeDrops;
}

PrefixCacheAuditView
PrefixCache::auditView() const
{
    PrefixCacheAuditView view;
    view.populated = cfg_.enabled;
    view.nodeCount = nodes_.size();
    view.treeBlocks.reserve(keyOfBlock_.size());
    // Snapshot only; the sort below makes the result independent of
    // hash order.
    // qoserve-lint: allow(unordered-iter)
    for (const auto &[block, key] : keyOfBlock_)
        view.treeBlocks.push_back(block);
    std::sort(view.treeBlocks.begin(), view.treeBlocks.end());
    return view;
}

} // namespace qoserve
