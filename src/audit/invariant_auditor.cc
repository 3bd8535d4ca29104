/**
 * @file
 * Invariant auditor implementation.
 */

#include "audit/invariant_auditor.hh"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "kvcache/block_manager.hh"
#include "prefixcache/prefix_cache.hh"
#include "sched/request.hh"
#include "sched/scheduler.hh"
#include "simcore/event_queue.hh"
#include "simcore/logging.hh"

namespace qoserve {

InvariantAuditor::InvariantAuditor() : InvariantAuditor(Options{})
{
}

InvariantAuditor::InvariantAuditor(Options opts) : opts_(opts)
{
}

void
InvariantAuditor::report(const char *invariant, std::string detail,
                         SimTime when)
{
    ++violationCount_;
    if (opts_.failFast) {
        QOSERVE_PANIC("invariant violated [", invariant, "] at t=", when,
                      ": ", detail);
    }
    if (violations_.size() < opts_.maxRetained)
        violations_.push_back({invariant, std::move(detail), when});
}

void
InvariantAuditor::onIterationComplete(const BlockManager &kv,
                                      const Scheduler &sched,
                                      const EventQueue &eq,
                                      const PrefixCache *cache)
{
    if (opts_.level == audit::CheckLevel::Off)
        return;
    ++iterations_;
    checkEventTime(eq);
    checkBlockManager(kv, eq.now());
    checkScheduler(sched, &kv, eq.now());
    if (cache != nullptr && cache->enabled())
        checkPrefixCache(*cache, kv, eq.now());
}

void
InvariantAuditor::checkEventTime(const EventQueue &eq)
{
    if (!cheap())
        return;
    SimTime now = eq.now();
    if (!std::isfinite(now.seconds())) {
        report("clock-finite",
               detail::composeMessage("clock is not finite: ", now), now);
    } else if (now < lastEventTime_) {
        report("clock-monotone",
               detail::composeMessage("clock moved backwards: ", now,
                                      " < ", lastEventTime_),
               now);
    }
    lastEventTime_ = std::max(lastEventTime_, now);
}

void
InvariantAuditor::checkBlockManager(const BlockManager &kv, SimTime now)
{
    if (!cheap())
        return;

    // Cheap: aggregate conservation. free + used == total holds by
    // construction (free is derived), so the checkable half is that
    // the used counter stayed inside [0, total].
    if (kv.usedBlocks() < 0 || kv.usedBlocks() > kv.totalBlocks()) {
        report("kv-conservation",
               detail::composeMessage("used blocks ", kv.usedBlocks(),
                                      " outside [0, ", kv.totalBlocks(),
                                      "]"),
               now);
    }

    if (!full())
        return;

    // Full: per-owner accounting must sum to the aggregate, and each
    // owner's blocks must exactly cover its tokens.
    std::int64_t block_sum = 0;
    KvSharedAuditView shared;
    shared.blockTokens = kv.blockTokens();
    for (const KvOwnerUsage &u : kv.ownerUsage()) {
        block_sum += u.blocks;
        shared.owners.push_back(
            {u.owner, u.sharedTokens, kv.ownerSharedIds(u.slot)});
        if (u.tokens < 0 || u.blocks < 0) {
            report("kv-owner-accounting",
                   detail::composeMessage("owner ", u.owner,
                                          " negative usage: tokens=",
                                          u.tokens, " blocks=", u.blocks),
                   now);
            continue;
        }
        std::int64_t cover =
            u.blocks * static_cast<std::int64_t>(kv.blockTokens());
        std::int64_t prev_cover =
            (u.blocks - 1) * static_cast<std::int64_t>(kv.blockTokens());
        bool exact = u.blocks == 0 ? u.tokens == 0
                                   : u.tokens <= cover &&
                                         u.tokens > prev_cover;
        if (!exact) {
            report("kv-owner-accounting",
                   detail::composeMessage("owner ", u.owner, " holds ",
                                          u.blocks, " blocks for ",
                                          u.tokens, " tokens (",
                                          kv.blockTokens(),
                                          " tokens/block)"),
                   now);
        }
    }
    if (block_sum + kv.sharedBlockCount() != kv.usedBlocks()) {
        report("kv-conservation",
               detail::composeMessage("per-owner blocks sum to ",
                                      block_sum, " plus ",
                                      kv.sharedBlockCount(),
                                      " shared, but used counter is ",
                                      kv.usedBlocks()),
               now);
    }

    shared.table = kv.sharedBlockTable();
    shared.cacheHeldBlocks = kv.cacheHeldBlocks();
    shared.evictableBlocks = kv.evictableBlocks();
    shared.cacheWatermark = kv.cacheWatermark();
    checkSharedTable(shared, now);
}

void
InvariantAuditor::checkSharedTable(const KvSharedAuditView &view,
                                   SimTime now)
{
    if (!full())
        return;

    // Shared-block refcount conservation: every shared block's
    // refcount is exactly the owners referencing it plus the cache's
    // own hold, and the aggregate cache-held / evictable tallies match
    // the table. An evictable block (refs == 1, cache-held) is by the
    // same arithmetic disjoint from every owner's holdings — the
    // property availableBlocks() and the kv-capped batch budget lean
    // on.
    std::unordered_map<KvBlockId, std::int64_t> owner_refs;
    for (const KvSharedAuditView::OwnerRefs &o : view.owners) {
        for (KvBlockId id : o.sharedIds)
            ++owner_refs[id];
        if (o.sharedTokens !=
            static_cast<std::int64_t>(o.sharedIds.size()) *
                static_cast<std::int64_t>(view.blockTokens)) {
            report("kv-shared-refcount",
                   detail::composeMessage(
                       "owner ", o.owner, " counts ", o.sharedTokens,
                       " shared tokens over ", o.sharedIds.size(),
                       " shared blocks (", view.blockTokens,
                       " tokens/block; shared blocks are always full)"),
                   now);
        }
    }
    std::int64_t cache_held = 0;
    std::int64_t evictable = 0;
    for (const KvSharedBlockInfo &info : view.table) {
        if (info.cacheHeld)
            ++cache_held;
        if (info.cacheHeld && info.refs == 1)
            ++evictable;
        if (info.refs <= 0) {
            report("kv-shared-refcount",
                   detail::composeMessage("shared block ", info.id,
                                          " alive with refcount ",
                                          info.refs),
                   now);
            continue;
        }
        auto it = owner_refs.find(info.id);
        std::int64_t held =
            it == owner_refs.end() ? 0 : it->second;
        std::int64_t expected = held + (info.cacheHeld ? 1 : 0);
        if (info.refs != expected) {
            report("kv-shared-refcount",
                   detail::composeMessage(
                       "shared block ", info.id, " has refcount ",
                       info.refs, " but ", held, " owners hold it",
                       info.cacheHeld ? " plus the cache" : ""),
                   now);
        }
    }
    if (cache_held != view.cacheHeldBlocks) {
        report("kv-shared-refcount",
               detail::composeMessage(cache_held,
                                      " cache-held blocks in the table "
                                      "but the counter says ",
                                      view.cacheHeldBlocks),
               now);
    }
    if (evictable != view.evictableBlocks) {
        report("kv-shared-refcount",
               detail::composeMessage(evictable,
                                      " evictable blocks in the table "
                                      "but the counter says ",
                                      view.evictableBlocks),
               now);
    }
    if (view.cacheWatermark > 0 &&
        view.cacheHeldBlocks > view.cacheWatermark) {
        report("kv-cache-watermark",
               detail::composeMessage("cache holds ",
                                      view.cacheHeldBlocks,
                                      " blocks over its watermark of ",
                                      view.cacheWatermark),
               now);
    }
}

void
InvariantAuditor::checkPrefixCache(const PrefixCache &cache,
                                   const BlockManager &kv, SimTime now)
{
    if (!full())
        return;
    PrefixCacheAuditView view = cache.auditView();
    if (!view.populated)
        return;

    // The radix tree and the block manager must agree on which blocks
    // the cache holds: one tree node per cache-held block, no node
    // pointing at a dead or non-cache-held block, no cache-held block
    // missing from the tree.
    if (view.treeBlocks.size() != view.nodeCount) {
        report("prefix-tree-blocks",
               detail::composeMessage(view.nodeCount, " tree nodes but ",
                                      view.treeBlocks.size(),
                                      " distinct blocks"),
               now);
    }
    std::vector<KvBlockId> held;
    for (const KvSharedBlockInfo &info : kv.sharedBlockTable()) {
        if (info.cacheHeld)
            held.push_back(info.id);
    }
    // Both sides are sorted by block id; mismatches are reported per
    // block for debuggability.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < view.treeBlocks.size() || j < held.size()) {
        if (j == held.size() ||
            (i < view.treeBlocks.size() &&
             view.treeBlocks[i] < held[j])) {
            report("prefix-tree-blocks",
                   detail::composeMessage("tree references block ",
                                          view.treeBlocks[i],
                                          " the KV manager does not "
                                          "hold for the cache"),
                   now);
            ++i;
        } else if (i == view.treeBlocks.size() ||
                   held[j] < view.treeBlocks[i]) {
            report("prefix-tree-blocks",
                   detail::composeMessage("cache-held block ", held[j],
                                          " missing from the radix "
                                          "tree"),
                   now);
            ++j;
        } else {
            ++i;
            ++j;
        }
    }
}

void
InvariantAuditor::checkScheduler(const Scheduler &sched,
                                 const BlockManager *kv, SimTime now)
{
    if (!cheap())
        return;
    // Only a full-level audit walks the queues; the cheap level needs
    // just the scalar counters, so don't make the scheduler
    // materialise its whole backlog (O(queue) per iteration adds up
    // to quadratic cost under overload).
    checkSchedulerView(sched.auditView(full()), kv, now);
}

void
InvariantAuditor::checkSchedulerView(const SchedulerAuditView &view,
                                     const BlockManager *kv, SimTime now)
{
    if (!cheap())
        return;

    // Cheap: counters inside their configured bounds. Hand-built
    // views (tests) may fill only the vectors, so take the larger of
    // the scalar count and the vector size.
    std::size_t decode_count =
        std::max(view.decodeCount, view.decodes.size());
    if (view.maxDecodeBatch > 0 &&
        decode_count > static_cast<std::size_t>(view.maxDecodeBatch)) {
        report("sched-decode-bound",
               detail::composeMessage(decode_count,
                                      " decodes exceed the batch cap ",
                                      view.maxDecodeBatch),
               now);
    }
    if (view.pendingPrefillTokens < 0) {
        report("sched-pending-prefill",
               detail::composeMessage("pending prefill counter is ",
                                      view.pendingPrefillTokens),
               now);
    }

    if (!full())
        return;

    // Full: a request lives in exactly one queue, with the phase that
    // queue implies.
    std::unordered_set<std::uint64_t> seen;
    std::int64_t pending_sum = 0;
    const Request *prev = nullptr;
    for (const Request *req : view.prefills) {
        if (!seen.insert(req->id()).second) {
            report("sched-exclusivity",
                   detail::composeMessage("request ", req->id(),
                                          " queued twice"),
                   now);
        }
        if (req->phase() != RequestPhase::WaitingPrefill &&
            req->phase() != RequestPhase::Prefilling) {
            report("sched-phase",
                   detail::composeMessage(
                       "request ", req->id(),
                       " in prefill queue with phase ",
                       static_cast<int>(req->phase())),
                   now);
        }
        if (req->prefillRemaining() <= 0) {
            report("sched-phase",
                   detail::composeMessage("request ", req->id(),
                                          " queued for prefill with ",
                                          req->prefillRemaining(),
                                          " tokens remaining"),
                   now);
        }
        pending_sum += req->prefillRemaining();

        // Priority order: regular before relegated; within a class,
        // (cachedPriority, id) strictly increasing.
        if (prev != nullptr) {
            bool ordered;
            if (prev->relegated() != req->relegated())
                ordered = !prev->relegated();
            else if (prev->cachedPriority != req->cachedPriority)
                ordered = prev->cachedPriority < req->cachedPriority;
            else
                ordered = prev->id() < req->id();
            if (!ordered) {
                report("sched-priority-order",
                       detail::composeMessage(
                           "request ", prev->id(), " (prio ",
                           prev->cachedPriority,
                           prev->relegated() ? ", relegated" : "",
                           ") precedes ", req->id(), " (prio ",
                           req->cachedPriority,
                           req->relegated() ? ", relegated" : "", ")"),
                       now);
            }
        }
        prev = req;
    }
    if (pending_sum != view.pendingPrefillTokens) {
        report("sched-pending-prefill",
               detail::composeMessage("queued prefill tokens sum to ",
                                      pending_sum,
                                      " but the counter says ",
                                      view.pendingPrefillTokens),
               now);
    }

    for (const Request *req : view.decodes) {
        if (!seen.insert(req->id()).second) {
            report("sched-exclusivity",
                   detail::composeMessage("request ", req->id(),
                                          " in prefill and decode "
                                          "queues at once"),
                   now);
        }
        if (req->phase() != RequestPhase::Decoding) {
            report("sched-phase",
                   detail::composeMessage("request ", req->id(),
                                          " in decode queue with phase ",
                                          static_cast<int>(req->phase())),
                   now);
        }
        if (req->prefillRemaining() != 0) {
            report("sched-phase",
                   detail::composeMessage("decoding request ", req->id(),
                                          " still has ",
                                          req->prefillRemaining(),
                                          " prefill tokens"),
                   now);
        }
    }

    // Cross-layer: between iterations every queued request's KV
    // allocation — private blocks plus attached shared blocks —
    // covers exactly its computed context. A decoding request's
    // newest sampled token has no KV yet — its entry is appended when
    // the token is fed back next iteration — so the expected
    // allocation there is one behind the context length.
    //
    // The KV manager finds a request's record only through the slot
    // the request carries, so a slot must be open under that
    // request's own id (a stale slot reused by another request would
    // silently merge two requests' KV), and every open slot must be
    // carried by a queued request (a leaked slot holds blocks no
    // request will ever release).
    if (kv != nullptr) {
        std::unordered_set<std::uint32_t> carried;
        auto check_kv = [&](const Request *req) {
            KvSlot slot = req->kvSlot();
            std::int64_t owned = 0;
            std::int64_t shared = 0;
            if (slot.valid()) {
                if (!kv->owns(slot) || kv->ownerOf(slot) != req->id()) {
                    report("kv-slot-owner",
                           detail::composeMessage(
                               "request ", req->id(), " carries KV slot ",
                               slot, ", which ",
                               kv->owns(slot)
                                   ? detail::composeMessage(
                                         "is open for owner ",
                                         kv->ownerOf(slot))
                                   : std::string("is not open")),
                           now);
                    return;
                }
                carried.insert(slot.value());
                owned = kv->ownedTokens(slot);
                shared = kv->sharedTokens(slot);
            }
            std::int64_t expected =
                req->phase() == RequestPhase::Decoding
                    ? req->contextLength() - 1
                    : req->contextLength();
            std::int64_t held = owned + shared;
            if (held != expected) {
                report("kv-request-agreement",
                       detail::composeMessage(
                           "request ", req->id(), " holds ", held,
                           " KV tokens (", owned, " private + ", shared,
                           " shared) but expected ", expected,
                           " (context ", req->contextLength(), ")"),
                       now);
            }
        };
        for (const Request *req : view.prefills)
            check_kv(req);
        for (const Request *req : view.decodes)
            check_kv(req);
        for (const KvOwnerUsage &u : kv->ownerUsage()) {
            if (carried.count(u.slot.value()) == 0) {
                report("kv-slot-orphan",
                       detail::composeMessage(
                           "KV slot ", u.slot, " is open for owner ",
                           u.owner, " (", u.tokens, " private + ",
                           u.sharedTokens,
                           " shared tokens) but no queued request "
                           "carries it"),
                       now);
            }
        }
    }
}

void
InvariantAuditor::checkRecord(const RequestRecord &rec,
                              const TierTable &tiers)
{
    if (!cheap())
        return;

    SimTime when = rec.finishTime;
    if (rec.spec.tierId < 0 ||
        rec.spec.tierId >= static_cast<int>(tiers.size())) {
        report("slo-record",
               detail::composeMessage("record ", rec.spec.id,
                                      " references unknown tier ",
                                      rec.spec.tierId),
               when);
        return;
    }
    // Terminal states are exclusive and self-consistent: an abandoned
    // request (retry budget exhausted or deadline-cancelled) never
    // finished, and a front-door rejection (admission or brownout
    // shed) never entered the retry path.
    if (rec.retryExhausted && rec.finishTime != kTimeNever) {
        report("slo-terminal-state",
               detail::composeMessage("record ", rec.spec.id,
                                      " is abandoned yet finished at ",
                                      rec.finishTime),
               when);
    }
    if (rec.rejected && rec.retryExhausted) {
        report("slo-terminal-state",
               detail::composeMessage("record ", rec.spec.id,
                                      " is both rejected and "
                                      "abandoned"),
               when);
    }
    if (rec.rejected && rec.retries != 0) {
        report("slo-terminal-state",
               detail::composeMessage("record ", rec.spec.id,
                                      " was rejected at the front door "
                                      "yet counts ",
                                      rec.retries, " retries"),
               when);
    }
    if (rec.rejected)
        return; // Never executed: latencies are deliberately infinite.

    if (rec.firstTokenTime < rec.spec.arrival) {
        report("slo-ttft-sample",
               detail::composeMessage("record ", rec.spec.id,
                                      " has negative TTFT: first token ",
                                      rec.firstTokenTime, " < arrival ",
                                      rec.spec.arrival),
               when);
    }
    if (rec.finishTime < rec.firstTokenTime) {
        report("slo-token-order",
               detail::composeMessage("record ", rec.spec.id,
                                      " finished at ", rec.finishTime,
                                      " before its first token at ",
                                      rec.firstTokenTime),
               when);
    }
    if (!(rec.maxTbt >= 0.0) || !std::isfinite(rec.maxTbt)) {
        report("slo-tbt-sample",
               detail::composeMessage("record ", rec.spec.id,
                                      " has invalid max TBT ",
                                      rec.maxTbt),
               when);
    }
    if (rec.tbtDeadlineMisses < 0 ||
        rec.tbtDeadlineMisses > rec.spec.decodeTokens) {
        report("slo-miss-count",
               detail::composeMessage("record ", rec.spec.id, " counts ",
                                      rec.tbtDeadlineMisses,
                                      " TBT misses over ",
                                      rec.spec.decodeTokens, " tokens"),
               when);
    }
    if (rec.kvPreemptions < 0) {
        report("slo-record",
               detail::composeMessage("record ", rec.spec.id,
                                      " has negative preemption count"),
               when);
    }
    if (rec.retries < 0) {
        report("slo-record",
               detail::composeMessage("record ", rec.spec.id,
                                      " has negative retry count"),
               when);
    }
}

void
InvariantAuditor::onReplicaCrash(const BlockManager &kv,
                                 const Scheduler &sched,
                                 std::size_t live_requests, SimTime now)
{
    if (!cheap())
        return;

    // Block conservation across crash-release: a dead process holds
    // no memory. Any remainder is a leak that would starve the
    // recovered replica.
    if (kv.usedBlocks() != 0 || kv.numOwners() != 0) {
        report("kv-crash-release",
               detail::composeMessage("crashed replica still holds ",
                                      kv.usedBlocks(), " blocks for ",
                                      kv.numOwners(), " owners"),
               now);
    }
    if (kv.sharedBlockCount() != 0 || kv.cacheHeldBlocks() != 0 ||
        kv.evictableBlocks() != 0) {
        report("kv-crash-release",
               detail::composeMessage("crashed replica still tracks ",
                                      kv.sharedBlockCount(),
                                      " shared blocks (",
                                      kv.cacheHeldBlocks(),
                                      " cache-held, ",
                                      kv.evictableBlocks(),
                                      " evictable)"),
               now);
    }

    // No request stranded on a down replica: every live request must
    // have been handed back to the cluster, and the rebuilt scheduler
    // must have nothing queued.
    if (live_requests != 0) {
        report("crash-stranded-request",
               detail::composeMessage(live_requests,
                                      " requests still owned by a "
                                      "crashed replica"),
               now);
    }
    if (sched.hasWork()) {
        report("crash-stranded-request",
               detail::composeMessage(
                   "crashed replica's scheduler still has work: ",
                   sched.prefillQueueSize(), " prefills, ",
                   sched.decodeQueueSize(), " decodes"),
               now);
    }
}

} // namespace qoserve
