/**
 * @file
 * Chunked-scheduler base implementation.
 */

#include "sched/chunked_scheduler.hh"

#include <algorithm>
#include <unordered_set>

#include "core/check_level.hh"
#include "prefixcache/prefix_cache.hh"
#include "simcore/logging.hh"

namespace qoserve {

ChunkedScheduler::ChunkedScheduler(const SchedulerEnv &env,
                                   ChunkedSchedulerConfig cfg)
    : env_(env), cfg_(cfg)
{
    QOSERVE_ASSERT(env_.kv != nullptr, "scheduler needs a BlockManager");
    QOSERVE_ASSERT(env_.perf != nullptr, "scheduler needs a PerfModel");
    QOSERVE_ASSERT(cfg_.fixedChunkTokens > 0, "chunk must be positive");
    QOSERVE_ASSERT(cfg_.maxDecodeBatch > 0, "decode batch must be positive");

    // Coarse processing-rate estimates used for relegation decisions
    // and priority terms. Prefill rate: throughput at a large chunk.
    BatchWork big;
    big.prefillTokens = 2048;
    big.prefillCtxProduct = 2048.0 * 1024.0;
    prefillRate_ = 2048.0 / env_.perf->iterationTime(big);

    // Decode token time: one iteration of a typical mixed batch (a
    // decoding request gains one token per iteration).
    BatchWork typical;
    typical.prefillTokens = cfg_.fixedChunkTokens;
    typical.prefillCtxProduct =
        static_cast<double>(cfg_.fixedChunkTokens) * 1024.0;
    typical.numDecodes = 32;
    typical.decodeCtxSum = 32 * 1536;
    decodeTokenTime_ = env_.perf->iterationTime(typical);
}

SimDuration
ChunkedScheduler::estPrefillTime(double tokens) const
{
    return tokens / prefillRate_;
}

SimDuration
ChunkedScheduler::estDecodeTime(double tokens) const
{
    return tokens * decodeTokenTime_;
}

int
ChunkedScheduler::chunkBudget(SimTime, const Batch &) const
{
    return cfg_.fixedChunkTokens;
}

bool
ChunkedScheduler::shouldRelegate(const Request &, SimTime) const
{
    return false;
}

void
ChunkedScheduler::collectUrgentInflight(SimTime,
                                        std::vector<Request *> &) const
{
}

void
ChunkedScheduler::enqueue(Request *req, SimTime now)
{
    QOSERVE_ASSERT(req->phase() == RequestPhase::WaitingPrefill,
                   "enqueue of in-progress request");
    req->cachedPriority = priorityOf(*req, now);
    auto [it, inserted] = prefillQueue_.insert(req);
    QOSERVE_ASSERT(inserted, "request enqueued twice");
    pendingPrefill_ += req->prefillRemaining();
    onCompositionChange();
}

void
ChunkedScheduler::relegate(Request *req, SimTime now)
{
    auto it = prefillQueue_.find(req);
    QOSERVE_ASSERT(it != prefillQueue_.end(),
                   "relegation of unqueued request");
    prefillQueue_.erase(it);
    req->setRelegated(true);
    req->cachedPriority = priorityOf(*req, now);
    prefillQueue_.insert(req);
    ++stats_.relegations;
    if (env_.trace != nullptr)
        env_.trace->emit(TraceEventKind::Relegate, req->id());
    onCompositionChange();
}

int
ChunkedScheduler::tryScheduleChunk(Request *req, Batch &batch, int budget,
                                   int &decode_slots)
{
    int rem = req->prefillRemaining();
    QOSERVE_ASSERT(rem > 0, "prefill-complete request in prefill queue");

    // decodeRemaining() > 1: completing the prefill emits one token
    // and leaves more to decode (for failure-resumed requests the
    // spec's decode count alone would overstate the remainder).
    int take = std::min(budget, rem);
    if (take == rem && req->decodeRemaining() > 1 && decode_slots <= 0) {
        // Completing the prefill would admit a new decode, but the
        // decode batch is full; hold back the final token so the
        // request stays in the prefill queue.
        take = std::min(budget, rem - 1);
    }
    if (take <= 0)
        return 0;

    if (!req->kvSlot().valid())
        req->setKvSlot(env_.kv->open(req->id()));
    if (!env_.kv->grow(req->kvSlot(), TokenCount{take}))
        return 0;

    ScheduledChunk chunk;
    chunk.request = req;
    chunk.chunkTokens = take;
    chunk.contextBefore = req->contextLength();
    batch.prefills.push_back(chunk);

    if (take == rem && req->decodeRemaining() > 1)
        --decode_slots;
    return take;
}

int
ChunkedScheduler::kvCappedBudget(int policy_budget) const
{
    // Reserve one token of KV growth per decoding request, then cap
    // the chunk budget by the remaining KV space. Evictable cached
    // blocks count as available — grow() reclaims them on demand.
    std::int64_t reserved_blocks =
        static_cast<std::int64_t>(decodes_.size());
    std::int64_t free_tokens =
        (env_.kv->availableBlocks() - reserved_blocks) *
        env_.kv->blockTokens();
    return static_cast<int>(std::min<std::int64_t>(
        policy_budget, std::max<std::int64_t>(0, free_tokens)));
}

Batch
ChunkedScheduler::formBatch(SimTime now)
{
    Batch batch;
    formBatchInto(batch, now);
    return batch;
}

void
ChunkedScheduler::formBatchInto(Batch &batch, SimTime now)
{
    batch.clear();
    batch.decodes = decodes_;

    int budget = kvCappedBudget(chunkBudget(now, batch));
    int decode_slots =
        cfg_.maxDecodeBatch - static_cast<int>(decodes_.size());

    // Largest budget the batch was ever allowed to draw from; the
    // audit at the end of this function checks the scheduled tokens
    // never exceeded it.
    int budget_cap = budget;

    takenScratch_.clear();
    std::unordered_set<Request *> &taken = takenScratch_;

    // Pass 0: in-flight requests that would violate their deadline if
    // delayed one more iteration are protected from preemption.
    urgentScratch_.clear();
    std::vector<Request *> &urgent = urgentScratch_;
    collectUrgentInflight(now, urgent);
    for (Request *req : urgent) {
        if (budget <= 0)
            break;
        if (taken.count(req))
            continue;
        int got = tryScheduleChunk(req, batch, budget, decode_slots);
        if (got > 0) {
            budget -= got;
            taken.insert(req);
        }
    }

    // Guard against a wedged queue: every block held by paused
    // partial prefills, nothing decoding, nothing schedulable.
    // Reclaim one victim so the walk below can make progress. Only a
    // batch with no scheduled work is wedged — if pass 0 consumed the
    // whole budget the engine is making progress, and refreshing the
    // budget here would both overfill the iteration and risk evicting
    // a request already in the batch.
    if (budget <= 0 && batch.prefills.empty() && decodes_.empty() &&
        !prefillQueue_.empty()) {
        if (preemptForKv(now)) {
            budget = kvCappedBudget(chunkBudget(now, batch));
            budget_cap = std::max(budget_cap, budget);
        }
    }

    // Main pass: walk the queue in priority order filling the budget
    // (Algorithm 1). Relegation re-inserts the request behind every
    // regular one, so the forward walk revisits it when it lands
    // ahead of the cursor — relegated requests are serviced
    // opportunistically when budget remains. A second pass picks up
    // requests relegated behind the cursor (e.g. the sole queued
    // request), so relegation can never starve the engine. The walk
    // touches only as many requests as it can schedule, relegate or
    // skip, so its cost is bounded by the budget, not queue length.
    for (int pass = 0; pass < 2; ++pass) {
        bool relegated_any = false;
        auto it = prefillQueue_.begin();
        while (budget > 0 && it != prefillQueue_.end()) {
            Request *req = *it;
            ++it; // Advance before mutating req's queue position.
            if (taken.count(req))
                continue;
            if (!req->relegated() && shouldRelegate(*req, now)) {
                relegate(req, now);
                relegated_any = true;
                continue;
            }
            int got = tryScheduleChunk(req, batch, budget, decode_slots);
            if (got > 0) {
                budget -= got;
                taken.insert(req);
            }
        }
        if (!(relegated_any && batch.prefills.empty()))
            break;
    }

    if constexpr (audit::cheapChecks()) {
        QOSERVE_ASSERT(batch.prefillTokens() <= budget_cap,
                       "batch of ", batch.prefillTokens(),
                       " prefill tokens exceeds its budget ",
                       budget_cap);
        QOSERVE_ASSERT(static_cast<int>(batch.decodes.size()) <=
                           cfg_.maxDecodeBatch,
                       "decode batch of ", batch.decodes.size(),
                       " exceeds the cap ", cfg_.maxDecodeBatch);
    }

    if (!batch.empty()) {
        ++stats_.batchesFormed;
        stats_.prefillTokensScheduled += batch.prefillTokens();
        stats_.decodeTokensScheduled += batch.decodes.size();
    }
}

void
ChunkedScheduler::finish(Request *req)
{
    if (env_.trace != nullptr)
        env_.trace->emit(TraceEventKind::Finish, req->id());
    releaseKv(req);
    onCompositionChange();
    if (onComplete_)
        onComplete_(req);
}

void
ChunkedScheduler::releaseKv(Request *req)
{
    env_.kv->release(req->kvSlot());
    req->setKvSlot(KvSlot{});
}

bool
ChunkedScheduler::preemptForKv(SimTime now)
{
    // Prefer a partially prefilled request (its first token has not
    // been produced); among those, take the lowest-priority one,
    // breaking priority ties toward the youngest request. The tie
    // break makes the choice a pure function of request state — the
    // set hashes pointers, so without it the victim would depend on
    // heap addresses and vary run to run under ASLR.
    Request *victim = nullptr;
    // qoserve-lint: allow(unordered-iter)
    for (Request *cand : partiallyPrefilled_) {
        if (victim == nullptr ||
            cand->cachedPriority > victim->cachedPriority ||
            (cand->cachedPriority == victim->cachedPriority &&
             cand->id() > victim->id())) {
            victim = cand;
        }
    }

    if (victim != nullptr) {
        prefillQueue_.erase(victim);
        partiallyPrefilled_.erase(victim);
        pendingPrefill_ -= victim->prefillRemaining();
        releaseKv(victim);
        victim->resetAfterKvPreemption();
        pendingPrefill_ += victim->prefillRemaining();
        victim->cachedPriority = priorityOf(*victim, now);
        prefillQueue_.insert(victim);
        ++stats_.kvPreemptions;
        if (env_.trace != nullptr)
            env_.trace->emit(TraceEventKind::Preempt, victim->id());
        onCompositionChange();
        return true;
    }

    // Last resort: evict the newest decoding request (vLLM-style
    // recompute). The scheduling policies never choose this; it is
    // the engine's out-of-memory safety valve.
    if (decodes_.empty())
        return false;
    victim = decodes_.back();
    decodes_.pop_back();
    releaseKv(victim);
    victim->resetAfterKvPreemption();
    victim->cachedPriority = priorityOf(*victim, now);
    prefillQueue_.insert(victim);
    pendingPrefill_ += victim->prefillRemaining();
    ++stats_.kvPreemptions;
    if (env_.trace != nullptr)
        env_.trace->emit(TraceEventKind::Preempt, victim->id());
    onCompositionChange();
    return true;
}

void
ChunkedScheduler::onBatchComplete(const Batch &batch, SimTime end)
{
    // Apply prefill progress.
    for (const ScheduledChunk &chunk : batch.prefills) {
        Request *req = chunk.request;
        auto it = prefillQueue_.find(req);
        QOSERVE_ASSERT(it != prefillQueue_.end(),
                       "scheduled request missing from prefill queue");
        prefillQueue_.erase(it);
        pendingPrefill_ -= chunk.chunkTokens;

        req->applyPrefill(TokenCount{chunk.chunkTokens}, end);
        if (env_.trace != nullptr) {
            env_.trace->emit(TraceEventKind::ChunkEnd, req->id(),
                             req->prefillRemaining());
        }
        switch (req->phase()) {
          case RequestPhase::Prefilling:
            partiallyPrefilled_.insert(req);
            req->cachedPriority = priorityOf(*req, end);
            prefillQueue_.insert(req);
            break;
          case RequestPhase::Decoding:
            partiallyPrefilled_.erase(req);
            decodes_.push_back(req);
            onCompositionChange();
            // The prompt KV is now complete: offer its full blocks to
            // the shared-prefix cache so later requests with the same
            // prefix can skip recomputing them.
            if (env_.prefixCache != nullptr)
                env_.prefixCache->insert(req->kvSlot(), req->spec(), end);
            break;
          case RequestPhase::Finished:
            partiallyPrefilled_.erase(req);
            // Single-token requests complete in the same iteration as
            // their final chunk; cache their prompt before the KV is
            // released (the blocks survive as cache-held copies).
            if (env_.prefixCache != nullptr)
                env_.prefixCache->insert(req->kvSlot(), req->spec(), end);
            finish(req);
            break;
          default:
            QOSERVE_PANIC("unexpected phase after prefill");
        }
    }

    // Apply decode progress: one token per decoding request.
    for (Request *req : batch.decodes) {
        if (req->phase() != RequestPhase::Decoding)
            continue; // Evicted by a KV preemption this iteration.
        while (req->phase() == RequestPhase::Decoding &&
               !env_.kv->grow(req->kvSlot(), TokenCount{1})) {
            if (!preemptForKv(end)) {
                QOSERVE_PANIC("KV exhausted: request ", req->id(),
                              " cannot fit even alone");
            }
        }
        if (req->phase() != RequestPhase::Decoding)
            continue; // Self-evicted: no token this iteration.
        req->applyDecodeToken(end);
    }

    // Retire finished decodes (stable_partition keeps the finished
    // group intact in the tail, unlike remove_if).
    auto mid = std::stable_partition(
        decodes_.begin(), decodes_.end(), [](Request *r) {
            return r->phase() != RequestPhase::Finished;
        });
    std::vector<Request *> done(mid, decodes_.end());
    decodes_.erase(mid, decodes_.end());
    for (Request *req : done)
        finish(req);
}

Request *
ChunkedScheduler::peekPrefillHead() const
{
    return prefillQueue_.empty() ? nullptr : *prefillQueue_.begin();
}

void
ChunkedScheduler::prefillSnapshotInto(std::vector<Request *> &out) const
{
    out.assign(prefillQueue_.begin(), prefillQueue_.end());
}

bool
ChunkedScheduler::hasWork() const
{
    return !prefillQueue_.empty() || !decodes_.empty();
}

std::size_t
ChunkedScheduler::decodeQueueSize() const
{
    return decodes_.size();
}

std::size_t
ChunkedScheduler::prefillQueueSize() const
{
    return prefillQueue_.size();
}

const SchedulerStats &
ChunkedScheduler::stats() const
{
    return stats_;
}

SchedulerAuditView
ChunkedScheduler::auditView(bool full_detail) const
{
    SchedulerAuditView view;
    view.populated = true;
    view.prefillCount = prefillQueue_.size();
    view.decodeCount = decodes_.size();
    if (full_detail) {
        view.prefills.assign(prefillQueue_.begin(), prefillQueue_.end());
        view.decodes.assign(decodes_.begin(), decodes_.end());
    }
    view.pendingPrefillTokens = pendingPrefill_;
    view.maxDecodeBatch = cfg_.maxDecodeBatch;
    return view;
}

} // namespace qoserve
