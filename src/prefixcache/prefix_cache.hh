/**
 * @file
 * Shared-prefix KV cache (radix tree over block-aligned prefixes).
 *
 * Production LLM traffic repeats prompt prefixes — system prompts,
 * few-shot templates, multi-turn conversations — so the KV blocks of
 * a finished prefill are worth keeping: a later request whose prompt
 * starts with the same tokens attaches those blocks instead of
 * recomputing them, shrinking exactly the compute-bound prefill phase
 * the chunk-budget solver exists to tame (SGLang's RadixAttention
 * applied to the paper's chunked-prefill stack).
 *
 * The cache is a radix tree over *block-aligned* token prefixes: one
 * node per full KV block, keyed by a chained content hash of every
 * token up to and including that block. Matching a request therefore
 * walks the tree one block at a time until the first miss. Nodes
 * reference shared blocks in the BlockManager; a node whose block has
 * no request referencing it (refcount one — the cache's own hold) is
 * evictable, and eviction reclaims cold leaves in LRU order with ties
 * broken by block id (never pointer or hash order — determinism).
 *
 * Copy-on-write: only full blocks are shared. When a request's match
 * covers its entire prompt, the attach is capped one token short and
 * the final partially-used block is copied into a private block (the
 * COW copy) so the request's own tail never writes into shared state.
 * Symmetrically, a finishing prefill contributes only the full blocks
 * of its prompt; its partially-filled tail block stays private.
 */

#ifndef QOSERVE_PREFIXCACHE_PREFIX_CACHE_HH
#define QOSERVE_PREFIXCACHE_PREFIX_CACHE_HH

#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kvcache/block_manager.hh"
#include "obs/trace_sink.hh"
#include "simcore/time.hh"
#include "workload/trace.hh"

namespace qoserve {

/**
 * Prefix-cache deployment configuration (per replica).
 */
struct PrefixCacheConfig
{
    /** Master switch; when false the cache is inert and every code
     *  path is byte-identical to a build without it. */
    bool enabled = false;

    /** Fraction of the replica's KV blocks the cache may hold, in
     *  (0, 1]. The resulting watermark is at least one block. */
    double capacityFrac = 0.5;

    /** Fatal on out-of-range values (deployment configuration is
     *  user input). */
    void validate() const;
};

/**
 * Cumulative cache counters (survive replica crashes; the tree does
 * not).
 */
struct PrefixCacheStats
{
    /** Attach attempts (admissions with the cache enabled). */
    std::int64_t lookups = 0;

    /** Attaches that reused at least one block. */
    std::int64_t hits = 0;

    /** Prefill tokens skipped via attached blocks (includes COW'd
     *  partial-tail tokens). */
    std::int64_t tokensAttached = 0;

    /** Partial-tail blocks copied on attach. */
    std::int64_t cowCopies = 0;

    /** Blocks converted into the tree by finishing prefills. */
    std::int64_t blocksInserted = 0;

    /** Blocks reclaimed by LRU eviction. */
    std::int64_t blocksEvicted = 0;

    /** Whole-tree drops (replica crashes). */
    std::int64_t treeDrops = 0;
};

/**
 * Read-only tree snapshot for the invariant auditor: every block id
 * the radix tree currently holds, sorted (deterministic order).
 */
struct PrefixCacheAuditView
{
    bool populated = false;
    std::size_t nodeCount = 0;
    std::vector<KvBlockId> treeBlocks;
};

/**
 * Chained per-block content keys of @p spec's prompt: entry i covers
 * tokens [0, (i+1) * block_tokens) — a prefix hash, so two prompts
 * share key i iff they agree on every token through block i. Prompts
 * without segments (fully unique content) key off the request id.
 */
std::vector<std::uint64_t> prefixBlockKeys(const RequestSpec &spec,
                                           TokenCount block_tokens);

/**
 * Deterministic shared-prefix cache layered on one replica's
 * BlockManager.
 */
class PrefixCache
{
  public:
    /** The manager must outlive the cache. Installs the watermark
     *  and eviction handler on @p kv when enabled. */
    PrefixCache(BlockManager &kv, const PrefixCacheConfig &cfg);

    bool enabled() const { return cfg_.enabled; }

    /**
     * Cache lookup at admission: match @p spec's prompt against the
     * tree, attach the matched blocks to open slot @p slot (owned by
     * request spec.id), and COW-copy the partial tail if the match
     * covers the whole prompt (capped one token short so at least one
     * real prefill token remains and the first-token emission path is
     * unchanged).
     *
     * @return Prompt tokens now covered by attached KV (0 on miss).
     */
    int attach(KvSlot slot, const RequestSpec &spec, SimTime now);

    /**
     * Insert a finished prefill's prompt blocks into the tree: slot
     * @p slot's private full blocks beyond the current match are
     * converted into cache-held shared blocks (and private
     * duplicates of already-cached blocks are deduplicated onto the
     * shared copies). Evicts cold blocks to stay under the
     * watermark; caches only the leading part of the prefix when the
     * cache cannot shrink enough.
     */
    void insert(KvSlot slot, const RequestSpec &spec, SimTime now);

    /**
     * Side-effect-free match length in tokens (capped like attach)
     * for cache-affinity routing.
     */
    int probe(const RequestSpec &spec) const;

    /**
     * Reclaim up to @p wanted blocks by evicting unreferenced leaves,
     * oldest first (ties by block id). Installed as the
     * BlockManager's eviction handler.
     *
     * @return Blocks actually freed.
     */
    std::int64_t evictBlocks(std::int64_t wanted);

    /**
     * Drop the whole tree without touching the BlockManager — the
     * crash path, where releaseAll() already destroyed every block.
     */
    void dropAll();

    /** Tree size in nodes (== blocks held). */
    std::size_t nodeCount() const { return nodes_.size(); }

    const PrefixCacheStats &stats() const { return stats_; }

    /** Snapshot for the invariant auditor. */
    PrefixCacheAuditView auditView() const;

    /** Attach the owning replica's trace handle (not owned; null
     *  detaches) so cache hits and evictions appear in the trace. */
    void setTrace(const TraceScope *trace) { trace_ = trace; }

  private:
    struct Node
    {
        KvBlockId block = 0;
        std::uint64_t parentKey = 0; ///< kNoParent for depth-0 nodes.
        SimTime lastUse;
        int children = 0;
    };

    static constexpr std::uint64_t kNoParent = 0;

    /** Longest tree match of @p keys; touches matched nodes' LRU
     *  entries when @p touch. */
    std::size_t walk(const std::vector<std::uint64_t> &keys, bool touch,
                     SimTime now);

    /** Match length without touching (for probe()). */
    std::size_t matchDepth(const std::vector<std::uint64_t> &keys) const;

    BlockManager &kv_;
    PrefixCacheConfig cfg_;

    /** Radix tree, keyed by chained prefix hash. Never iterated —
     *  all traversal goes through keys or the LRU set. */
    std::unordered_map<std::uint64_t, Node> nodes_;

    /** Block id -> node key, for LRU-order eviction. */
    std::unordered_map<KvBlockId, std::uint64_t> keyOfBlock_;

    /** (lastUse, block id), ordered: eviction scans from the front,
     *  so ties on lastUse break by block id — deterministic. */
    std::set<std::pair<SimTime, KvBlockId>> lru_;

    PrefixCacheStats stats_;
    const TraceScope *trace_ = nullptr;
};

} // namespace qoserve

#endif // QOSERVE_PREFIXCACHE_PREFIX_CACHE_HH
