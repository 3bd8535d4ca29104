/**
 * @file
 * Shared machinery for chunked-prefill iteration schedulers.
 *
 * Implements the skeleton of Algorithm 1: every decoding request runs
 * each iteration; a prefill token budget is filled from a priority-
 * ordered queue, possibly spanning several requests; queue membership
 * and KV-cache admission are handled here. Policies specialise three
 * hooks — the priority key, the chunk budget, and the relegation
 * test — which is exactly the design space the paper explores
 * (FCFS/EDF/SJF/SRPF vs. hybrid prioritization, fixed vs. dynamic
 * chunks, no relegation vs. eager relegation).
 */

#ifndef QOSERVE_SCHED_CHUNKED_SCHEDULER_HH
#define QOSERVE_SCHED_CHUNKED_SCHEDULER_HH

#include <set>
#include <unordered_set>
#include <vector>

#include "sched/scheduler.hh"

namespace qoserve {

/** Completion callback invoked when a request finishes. */
using CompletionFn = std::function<void(Request *)>;

/**
 * Knobs common to all chunked schedulers.
 */
struct ChunkedSchedulerConfig
{
    /** Fixed prefill chunk budget per iteration (Sarathi default). */
    int fixedChunkTokens = 256;

    /** Maximum concurrent decode-phase requests. */
    int maxDecodeBatch = 128;
};

/**
 * Base class implementing queue and batch mechanics.
 */
class ChunkedScheduler : public Scheduler
{
  public:
    ChunkedScheduler(const SchedulerEnv &env, ChunkedSchedulerConfig cfg);

    void enqueue(Request *req, SimTime now) override;
    Batch formBatch(SimTime now) override;
    void formBatchInto(Batch &batch, SimTime now) override;
    void onBatchComplete(const Batch &batch, SimTime end) override;
    bool hasWork() const override;
    std::size_t decodeQueueSize() const override;
    std::size_t prefillQueueSize() const override;
    const SchedulerStats &stats() const override;
    SchedulerAuditView auditView(bool full_detail) const override;
    using Scheduler::auditView;

    /** Install the replica's completion handler. */
    void setCompletionHandler(CompletionFn fn) { onComplete_ = std::move(fn); }

    /** Prompt tokens still waiting in the prefill queue. */
    std::int64_t
    pendingPrefillTokens() const override
    {
        return pendingPrefill_;
    }

  protected:
    /**
     * Priority key of a request; smaller keys are served first.
     * Ties break on request id. Must be a pure function of the
     * request's current progress (re-evaluated whenever progress
     * changes), not of wall time spent in the queue.
     */
    virtual double priorityOf(const Request &req, SimTime now) const = 0;

    /**
     * Prefill token budget for this iteration.
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

    /**
     * Hook fired whenever the batch composition changes: a request is
     * admitted, relegated, preempted, joins the decode batch, or
     * finishes. Policies that memoise composition-dependent work
     * (e.g. QoServe's chunk-budget solve) invalidate here. Default:
     * nothing.
     */
    virtual void onCompositionChange() {}

    /** Estimated wall time to prefill @p tokens at full throughput. */
    SimDuration estPrefillTime(double tokens) const;

    /** Estimated wall time to emit @p tokens decode tokens. */
    SimDuration estDecodeTime(double tokens) const;

    /** Environment services. */
    const SchedulerEnv &env() const { return env_; }

    /** Configuration. */
    const ChunkedSchedulerConfig &config() const { return cfg_; }

    /** Requests currently holding a spot in the decode queue. */
    const std::vector<Request *> &decodeQueue() const { return decodes_; }

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

    /** Release @p req's KV slot (all its blocks) and clear it. */
    void releaseKv(Request *req);

    SchedulerEnv env_;
    ChunkedSchedulerConfig cfg_;
    PrefillQueue prefillQueue_;
    std::unordered_set<Request *> partiallyPrefilled_;
    std::vector<Request *> decodes_;
    std::int64_t pendingPrefill_ = 0;
    SchedulerStats stats_;
    CompletionFn onComplete_;

    /** Per-iteration scratch hoisted out of formBatchInto(). */
    std::vector<Request *> urgentScratch_;
    std::unordered_set<Request *> takenScratch_;

    /** Cached estimate: prefill tokens per second at large chunks. */
    double prefillRate_ = 0.0;

    /** Cached estimate: seconds per decode token (one iteration). */
    double decodeTokenTime_ = 0.0;
};

} // namespace qoserve

#endif // QOSERVE_SCHED_CHUNKED_SCHEDULER_HH
