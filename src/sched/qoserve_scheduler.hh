/**
 * @file
 * The QoServe scheduler — the paper's core contribution (§3).
 *
 * Combines four techniques on top of the chunked-prefill machinery:
 *
 *  1. Dynamic chunking (§3.3): each iteration, the prefill chunk is
 *     sized to the largest value whose predicted execution time fits
 *     the minimum TBT slack of the interactive decoding requests,
 *     using the batch-latency predictor (§3.6.1).
 *  2. Hybrid prioritization (§3.4, Eqs. 4-5): request priority
 *     interpolates between EDF (deadline term) and SRPF (remaining
 *     work term) through the alpha parameter.
 *  3. Eager relegation (§3.4): requests that have violated — or are
 *     about to violate — their TTFT/TTLT deadline move to the back
 *     of the queue ("relegated") and are serviced opportunistically;
 *     under overload, low-priority (non-important) requests are
 *     relegated first, using application hints.
 *  4. Selective preemption (§3.4): partially prefilled requests may
 *     be preempted by higher-priority arrivals, but never into a
 *     deadline violation, and decoding requests are never preempted.
 */

#ifndef QOSERVE_SCHED_QOSERVE_SCHEDULER_HH
#define QOSERVE_SCHED_QOSERVE_SCHEDULER_HH

#include "predictor/latency_predictor.hh"
#include "sched/scheduler.hh"

namespace qoserve {

/**
 * Feature flags and tuning parameters of QoServe.
 *
 * The three enable* flags correspond to the ablation rows of
 * Table 5 (DC, DC+ER, DC+ER+HP).
 */
struct QoServeConfig
{
    /** Hybrid interpolation factor, milliseconds per token (§3.6). */
    double alphaMsPerToken = 8.0;

    /**
     * Load-adaptive alpha (§3.6, "For variable-QPS, we employ
     * load-adaptive tuning"): when enabled, the effective alpha
     * interpolates between alphaLowLoadMs at an empty queue and
     * alphaMsPerToken once the prefill backlog reaches the overload
     * threshold — small alpha protects tail latency at low load,
     * large alpha minimizes violations under overload (Fig. 14).
     */
    bool adaptiveAlpha = false;

    /** Alpha used at low load when adaptiveAlpha is on (ms/token). */
    double alphaLowLoadMs = 1.0;

    /** Enable dynamic chunking (needs env.predictor). */
    bool enableDynamicChunking = true;

    /** Enable eager relegation. */
    bool enableEagerRelegation = true;

    /** Enable the SRPF term; disabled makes the priority pure EDF. */
    bool enableHybridPriority = true;

    /** Enable urgent-inflight protection (selective preemption). */
    bool enableSelectivePreemption = true;

    /**
     * Lower bound for the dynamic chunk: the "original smaller chunk
     * size necessary to meet TBT" the scheduler reverts to when
     * slack runs out (§3.5). Guarantees prefill progress even when
     * interactive decodes leave no measured slack. The default is
     * the 192-token configuration (cf. the Sarathi-192 reference in
     * Fig. 15a): one floor iteration stays safely inside the 50 ms
     * TBT budget with a loaded decode batch, where 256 sits right at
     * the edge.
     */
    int minChunkTokens = 192;

    /** Upper bound for the dynamic chunk (throughput saturation). */
    int maxChunkTokens = 2560;

    /** Dynamic chunk granularity. */
    int chunkStep = 64;

    /**
     * Memoise the chunk-budget solve's predictor queries across
     * iterations. Cached values are reused only inside their
     * leaf-stability box (see ChunkSolverCache), so results are
     * bitwise identical with the memo on or off; the flag exists as
     * the compatibility switch for golden-output comparison.
     */
    bool enableSolverMemo = true;

    /**
     * Estimated prefill-queue drain time beyond which the system is
     * considered overloaded and non-important requests are eagerly
     * relegated before they violate.
     */
    SimDuration overloadThreshold = 6.0;
};

/**
 * QoS-driven scheduler (Algorithm 1).
 */
class QoServeScheduler : public Scheduler
{
  public:
    /**
     * @param env Replica services; env.predictor must be non-null
     *        when dynamic chunking is enabled.
     * @param qos_cfg QoServe feature flags and tuning.
     * @param cfg Base chunked-scheduler knobs; fixedChunkTokens is
     *        the fallback chunk when dynamic chunking is disabled.
     */
    QoServeScheduler(const SchedulerEnv &env, QoServeConfig qos_cfg = {},
                     ChunkedSchedulerConfig cfg = {});

    const char *name() const override { return "QoServe"; }

    /** Configuration in effect. */
    const QoServeConfig &qosConfig() const { return qosCfg_; }

    /** Chunk-solver memo counters (diagnostics, benches). */
    const ChunkSolverCache::Stats &
    solverCacheStats() const
    {
        return solverCache_.stats();
    }

    SchedulerAuditView auditView(bool full_detail) const override;

    /**
     * True when the estimated prefill backlog exceeds the overload
     * threshold (drives hint-based relegation).
     */
    bool overloaded(SimTime now) const;

    /**
     * The paper's WILL_VIOLATE test: the request has missed, or is
     * projected to miss, its TTFT (interactive) or TTLT
     * (non-interactive) deadline even if scheduled immediately.
     */
    bool willViolate(const Request &req, SimTime now) const;

    /**
     * The alpha (seconds/token) currently in effect: 0 with hybrid
     * priority disabled, the configured constant, or the load-ramped
     * value when adaptiveAlpha is on.
     */
    double effectiveAlpha() const;

  protected:
    double priorityOf(const Request &req, SimTime now) const override;
    int chunkBudget(SimTime now, const Batch &batch) const override;
    bool shouldRelegate(const Request &req, SimTime now) const override;
    void collectUrgentInflight(SimTime now,
                               std::vector<Request *> &out) const override;

  private:
    QoServeConfig qosCfg_;

    /**
     * Prediction memo for the chunk-budget solve; mutable because
     * chunkBudget() is logically const (the memo never changes any
     * observable result — hits are bitwise identical by the box
     * proof).
     */
    mutable ChunkSolverCache solverCache_;
};

} // namespace qoserve

#endif // QOSERVE_SCHED_QOSERVE_SCHEDULER_HH
