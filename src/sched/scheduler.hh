/**
 * @file
 * Chunked-prefill iteration scheduler.
 *
 * A scheduler owns the replica's queues: it admits arriving requests,
 * forms one batch per engine iteration, and updates its queues when
 * the iteration completes. The replica drives timing (via the event
 * queue and the execution model) and owns request lifetimes; the
 * scheduler sees raw pointers that remain valid until it surrenders
 * them through completion.
 *
 * Scheduler implements the skeleton of Algorithm 1: every decoding
 * request runs each iteration; a prefill token budget is filled from
 * a priority-ordered queue, possibly spanning several requests; queue
 * membership and KV-cache admission are handled here. Policies
 * specialise three hooks — the priority key, the chunk budget, and
 * the relegation test — which is exactly the design space the paper
 * explores (FCFS/EDF/SJF/SRPF vs. hybrid prioritization, fixed vs.
 * dynamic chunks, no relegation vs. eager relegation).
 */

#ifndef QOSERVE_SCHED_SCHEDULER_HH
#define QOSERVE_SCHED_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "kvcache/block_manager.hh"
#include "model/perf_model.hh"
#include "obs/trace_sink.hh"
#include "sched/batch.hh"

namespace qoserve {

class LatencyPredictor;
class PrefixCache;

/**
 * Shared services a scheduler needs from its replica.
 */
struct SchedulerEnv
{
    /** KV-cache allocator; never null. */
    BlockManager *kv = nullptr;

    /** Execution model, for coarse processing-time estimates. */
    const PerfModel *perf = nullptr;

    /** Batch-latency predictor; may be null for fixed-chunk policies. */
    const LatencyPredictor *predictor = nullptr;

    /** Shared-prefix cache; null or disabled when prefix caching is
     *  off (the scheduler then never touches it). */
    PrefixCache *prefixCache = nullptr;

    /** Lifecycle trace handle owned by the replica; null or off when
     *  tracing is disabled (emissions are no-ops either way). */
    const TraceScope *trace = nullptr;
};

/**
 * Aggregate counters a scheduler exposes for diagnostics and benches.
 */
struct SchedulerStats
{
    std::uint64_t batchesFormed = 0;
    std::uint64_t prefillTokensScheduled = 0;
    std::uint64_t decodeTokensScheduled = 0;
    std::uint64_t relegations = 0;
    std::uint64_t kvPreemptions = 0;

    /** Mean prefill chunk tokens per formed batch. */
    double
    averageChunkTokens() const
    {
        return batchesFormed == 0
                   ? 0.0
                   : static_cast<double>(prefillTokensScheduled) /
                         static_cast<double>(batchesFormed);
    }
};

/**
 * One decoding request's entry in its scheduler's dense lane array
 * (DESIGN.md §11, "Decode lanes"). While the request decodes, the
 * lane is the authoritative copy of its per-token state; the
 * scheduler writes it back into the Request when the request leaves
 * the decode set and on writeBackDecodeLanes().
 */
struct DecodeLane
{
    Request *req = nullptr;

    /** The request's KV slot, copied so the per-token grow reads only
     *  the lane. */
    KvSlot kvSlot;

    DecodeProgress progress;
};

/**
 * Read-only snapshot of a scheduler's queues for invariant auditing
 * (consumed by qoserve::InvariantAuditor; see DESIGN.md §7).
 */
struct SchedulerAuditView
{
    /**
     * Prefill queue in priority order (head first). Filled only for
     * full-detail views: materialising the queues is O(backlog) per
     * iteration, which the cheap audit level must not pay.
     */
    std::vector<const Request *> prefills;

    /** Decode lanes in admission order (full detail only; taken
     *  after the lanes were written back into their requests). */
    std::vector<DecodeLane> lanes;

    /** The scheduler's running KV-context sum over its decodes. */
    std::int64_t decodeCtxSum = 0;

    /** Prefill-queue length (always filled, even without vectors). */
    std::size_t prefillCount = 0;

    /** Decode-queue length (always filled, even without vectors). */
    std::size_t decodeCount = 0;

    /** Scheduler's own pending-prefill token counter. */
    std::int64_t pendingPrefillTokens = 0;

    /** Decode-batch bound the scheduler enforces (0 = unbounded). */
    int maxDecodeBatch = 0;

    /** Dynamic-chunk floor the policy guarantees (0 = none). */
    int minChunkTokens = 0;
};

/** Completion callback invoked when a request finishes. */
using CompletionFn = std::function<void(Request *)>;

/**
 * Knobs common to every scheduling policy.
 */
struct ChunkedSchedulerConfig
{
    /** Fixed prefill chunk budget per iteration (Sarathi default). */
    int fixedChunkTokens = 256;

    /** Maximum concurrent decode-phase requests. */
    static constexpr int kMaxDecodeBatch = 128;
};

/**
 * Iteration-level scheduler: queue and batch mechanics shared by
 * every policy. Policies override the protected hooks.
 */
class Scheduler
{
  public:
    Scheduler(const SchedulerEnv &env, ChunkedSchedulerConfig cfg);
    virtual ~Scheduler() = default;

    /** Admit a newly arrived request into the prefill queue. */
    virtual void enqueue(Request *req, SimTime now);

    /**
     * Form the next batch into @p batch, reusing its capacity (the
     * replica keeps one Batch alive and hands it back each
     * iteration). @p batch is cleared first.
     *
     * Called only while no batch is in flight. May leave the batch
     * empty when nothing can run (e.g. no requests).
     */
    virtual void formBatchInto(Batch &batch, SimTime now);

    /**
     * Apply the effects of a completed batch: advance request
     * progress, migrate prefill-complete requests to the decode
     * queue, and drop finished requests from all queues.
     *
     * @param batch The batch filled by the matching formBatchInto().
     * @param end Completion time of the iteration.
     */
    virtual void onBatchComplete(const Batch &batch, SimTime end);

    /**
     * Queue snapshot for the invariant auditor.
     *
     * @param full_detail When false, only the O(1) scalar fields
     *        (counts, counters, bounds) are filled in — the queue
     *        vectors stay empty. The cheap audit level uses this to
     *        avoid materialising the whole backlog every iteration.
     *        When true, the decode lanes are written back first, so
     *        every queued request's state is current.
     */
    virtual SchedulerAuditView auditView(bool full_detail) const;

    /**
     * Write every decode lane back into its request, so the
     * requests' progress and record fields are current (the replica
     * calls this before snapshotting a crash; tests before reading a
     * decoding request). Const: the lanes and queues do not change,
     * only the requests they point at.
     */
    void writeBackDecodeLanes() const;

    /** True if any request is waiting or in flight. */
    bool
    hasWork() const
    {
        return !prefillQueue_.empty() || !lanes_.empty();
    }

    /** Requests currently in decode phase. */
    std::size_t decodeQueueSize() const { return lanes_.size(); }

    /** Requests waiting for (more) prefill. */
    std::size_t prefillQueueSize() const { return prefillQueue_.size(); }

    /** Prompt tokens still waiting in the prefill queue. */
    std::int64_t pendingPrefillTokens() const { return pendingPrefill_; }

    /** Diagnostic counters. */
    const SchedulerStats &stats() const { return stats_; }

    /** Install the replica's completion handler. */
    void setCompletionHandler(CompletionFn fn) { onComplete_ = std::move(fn); }

  protected:
    /**
     * Priority key of a request; smaller keys are served first.
     * Ties break on request id. Must be a pure function of the
     * request's current progress (re-evaluated whenever progress
     * changes), not of wall time spent in the queue.
     */
    virtual double priorityOf(const Request &req, SimTime now) const = 0;

    /**
     * Prefill token budget for this iteration. formBatchInto() asks
     * only when a prefill is queued; a decode-only iteration skips it.
     *
     * @param now Iteration start time.
     * @param batch Batch under construction; decodes are final.
     */
    virtual int chunkBudget(SimTime now, const Batch &batch) const;

    /**
     * Eager-relegation test (Algorithm 1's WILL_VIOLATE). Default:
     * never relegate.
     */
    virtual bool shouldRelegate(const Request &req, SimTime now) const;

    /**
     * Collect in-flight prefill requests that must run this
     * iteration to avoid a deadline violation (selective-preemption
     * protection, §3.4). Default: none.
     */
    virtual void collectUrgentInflight(SimTime now,
                                       std::vector<Request *> &out) const;

    /** Estimated wall time to prefill @p tokens at full throughput. */
    SimDuration estPrefillTime(double tokens) const;

    /** Estimated wall time to emit @p tokens decode tokens. */
    SimDuration estDecodeTime(double tokens) const;

    /** Environment services. */
    const SchedulerEnv &env() const { return env_; }

    /** Configuration. */
    const ChunkedSchedulerConfig &config() const { return cfg_; }

    /** Decode lanes in decode-admission order; a formed batch's
     *  decodes are its first Batch::numDecodes lanes. */
    const std::vector<DecodeLane> &decodeLanes() const { return lanes_; }

    /** The decode lanes, for a policy that batches a subset of them:
     *  it may reorder the lanes (their finished requests retire in
     *  lane order) but not add or drop any. */
    std::vector<DecodeLane> &mutableDecodeLanes() { return lanes_; }

    /** Append @p req, which just started decoding, to the decode
     *  queue and open its lane. */
    void startDecode(Request *req);

    /** Set @p batch's decode side: one decode per lane and their
     *  summed KV context. */
    void fillDecodes(Batch &batch) const;

    /** Highest-priority prefill request, or nullptr when idle. */
    Request *peekPrefillHead() const;

    /** Ordered snapshot of the prefill queue into @p out, reusing its
     *  capacity. */
    void prefillSnapshotInto(std::vector<Request *> &out) const;

    /**
     * Requests with some prefill chunks processed that are still in
     * the prefill queue — the candidates selective preemption must
     * protect. Kept small by construction (bounded by chunk budget
     * over iterations).
     */
    const std::unordered_set<Request *> &
    partiallyPrefilled() const
    {
        return partiallyPrefilled_;
    }

    /** One-iteration wall-time estimate for a typical mixed batch. */
    SimDuration typicalIterationTime() const { return decodeTokenTime_; }

    /** Relegate @p req (moves it behind all regular requests). */
    void relegate(Request *req, SimTime now);

    /** Mutable stats for subclasses. */
    SchedulerStats &mutableStats() { return stats_; }

    /**
     * Try to add a chunk for @p req to @p batch within @p budget
     * (KV admission and decode-slot accounting included).
     *
     * @return Tokens actually scheduled (0 on skip).
     */
    int tryScheduleChunk(Request *req, Batch &batch, int budget,
                         int &decode_slots);

    /**
     * Prefill token budget remaining after reserving KV for decode
     * growth, given the policy budget @p policy_budget.
     */
    int kvCappedBudget(int policy_budget) const;

    /**
     * Preempt one victim's KV to make room; returns success.
     *
     * Victim order: lowest-priority partially-prefilled request
     * first (no token emitted yet), else the newest decoding request
     * — which may be the very request whose growth triggered the
     * preemption (vLLM-style self-preemption with recompute).
     */
    bool preemptForKv(SimTime now);

  private:
    struct QueueOrder
    {
        bool
        operator()(const Request *a, const Request *b) const
        {
            // Relegated requests always sort behind regular ones
            // (Algorithm 1's drop_status comparison).
            if (a->relegated() != b->relegated())
                return !a->relegated();
            if (a->cachedPriority != b->cachedPriority)
                return a->cachedPriority < b->cachedPriority;
            return a->id() < b->id();
        }
    };

    using PrefillQueue = std::set<Request *, QueueOrder>;

    /** Finish bookkeeping for a completed request. */
    void finish(Request *req);

    /** Copy @p lane's progress into its request. */
    void writeBack(const DecodeLane &lane) const;

    /** Write @p lane back as its request leaves the decode set and
     *  drop its context from the running sum (the caller removes
     *  the lane). */
    void leaveDecode(const DecodeLane &lane);

    /** Release @p req's KV slot (all its blocks) and clear it. */
    void releaseKv(Request *req);

    SchedulerEnv env_;
    ChunkedSchedulerConfig cfg_;
    PrefillQueue prefillQueue_;
    std::unordered_set<Request *> partiallyPrefilled_;
    /** One lane per decoding request, in decode-admission order. */
    std::vector<DecodeLane> lanes_;

    /** Summed KV context (contextLength()) over the decoding
     *  requests, kept as tokens are emitted. */
    std::int64_t decodeCtxSum_ = 0;

    std::int64_t pendingPrefill_ = 0;
    SchedulerStats stats_;
    CompletionFn onComplete_;

    /** Per-iteration scratch hoisted out of formBatchInto(). */
    std::vector<Request *> urgentScratch_;
    std::unordered_set<Request *> takenScratch_;

    /** Per-iteration scratch of onBatchComplete(): finished decodes. */
    std::vector<Request *> doneScratch_;

    /** Cached estimate: prefill tokens per second at large chunks. */
    double prefillRate_ = 0.0;

    /** Cached estimate: seconds per decode token (one iteration). */
    double decodeTokenTime_ = 0.0;
};

/** Factory used by replicas to instantiate a scheduler per replica. */
using SchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(const SchedulerEnv &)>;

} // namespace qoserve

#endif // QOSERVE_SCHED_SCHEDULER_HH
