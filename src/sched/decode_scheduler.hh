/**
 * @file
 * Decode-only iteration scheduler: the decode pool of a prefill-decode
 * disaggregated deployment (§4.1.3).
 *
 * Requests reach it KV-resident: another replica prefilled the prompt,
 * emitted the first token and transferred the KV. A request joins the
 * decode lanes, in arrival order, once its final context fits in KV.
 * Each iteration decodes a subset of the lanes chosen by one of two
 * policies:
 *
 *  - StrictestTbtCap — the paper's configuration: the longest prefix
 *    of the lanes, in admission order, whose iteration fits the
 *    *strictest* TBT among the configured tiers.
 *  - DeadlineAware — the paper's stated *future work* ("Efficiently
 *    supporting different TBT SLOs in the decode nodes"): lanes are
 *    taken in next-token-deadline order while the predicted iteration
 *    time still meets the earliest selected deadline, so 100 ms-TBT
 *    requests naturally decode on alternate iterations and stop
 *    constraining 50 ms-TBT ones.
 */

#ifndef QOSERVE_SCHED_DECODE_SCHEDULER_HH
#define QOSERVE_SCHED_DECODE_SCHEDULER_HH

#include <deque>

#include "sched/scheduler.hh"

namespace qoserve {

/** Decode-pool scheduling policy. */
enum class DecodePolicy
{
    StrictestTbtCap, ///< Batch capped for the strictest tier's TBT.
    DeadlineAware,   ///< Per-iteration deadline-ordered selection.
};

/**
 * Scheduler of one decode-pool replica. It keeps no prefill queue:
 * every request it holds is decoding, in the base class's decode
 * lanes, or waiting for KV.
 */
class DecodeScheduler : public Scheduler
{
  public:
    /** Hard cap on concurrent decodes per replica. */
    static constexpr int kMaxBatch = 256;

    /**
     * @param env Replica services (KV cache and execution model).
     * @param policy Batch-selection policy.
     * @param strictest_tbt Strictest TBT across tiers (cap sizing).
     */
    DecodeScheduler(const SchedulerEnv &env, DecodePolicy policy,
                    SimDuration strictest_tbt);

    /**
     * Admit a KV-resident request (phase Decoding). It waits, in
     * arrival order, until its final context fits in KV beside every
     * admitted request's final context; the replica then holds its
     * prompt KV and it decodes from the next batch on.
     */
    void enqueue(Request *req, SimTime now) override;

    void formBatchInto(Batch &batch, SimTime now) override;

    void onBatchComplete(const Batch &batch, SimTime end) override;

    SchedulerAuditView auditView(bool full_detail) const override;

  protected:
    /** A lane's admission rank, set when it is admitted. */
    double priorityOf(const Request &req, SimTime now) const override;

  private:
    /** Admit waiting requests while the head's final context fits. */
    void admitWaiting();

    /** KV blocks @p req's final context needs: its current context
     *  plus every token it has yet to emit. */
    std::int64_t finalBlocks(std::int64_t context,
                             std::int64_t remaining) const;

    /** Select the deadline-ordered batch (DeadlineAware). */
    void selectByDeadline(Batch &batch, SimTime now);

    DecodePolicy policy_;
    SimDuration strictestTbt_;

    /** Requests handed over but not yet admitted, in arrival order.
     *  While one waits, some lane holds the KV it waits for: with no
     *  lane, every head fits, so hasWork() needs no view of them. */
    std::deque<Request *> waiting_;

    /** KV blocks reserved for the admitted requests' final contexts.
     *  Admission subtracts them, so no lane's growth ever fails. */
    std::int64_t reservedBlocks_ = 0;

    /** Admission rank of the next admitted request. */
    double nextRank_ = 0.0;
};

} // namespace qoserve

#endif // QOSERVE_SCHED_DECODE_SCHEDULER_HH
