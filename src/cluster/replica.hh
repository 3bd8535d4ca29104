/**
 * @file
 * One serving replica: scheduler + execution engine + KV cache.
 *
 * The replica is the bridge between the discrete-event kernel and the
 * scheduler: whenever it is idle and the scheduler has work, it asks
 * the scheduler to form a batch, prices the batch with the execution
 * model, and schedules the completion event. One batch is in flight
 * at a time, matching iteration-level scheduling in vLLM/Sarathi.
 */

#ifndef QOSERVE_CLUSTER_REPLICA_HH
#define QOSERVE_CLUSTER_REPLICA_HH

#include <memory>
#include <unordered_map>

#include "kvcache/block_manager.hh"
#include "metrics/batch_observation.hh"
#include "model/perf_model.hh"
#include "obs/trace_sink.hh"
#include "prefixcache/prefix_cache.hh"
#include "sched/scheduler.hh"
#include "sched/request_pool.hh"
#include "simcore/event_queue.hh"
#include "workload/trace.hh"

namespace qoserve {

class InvariantAuditor;

/**
 * Health of a replica (fault-injection state machine, DESIGN.md §8).
 */
enum class ReplicaHealth
{
    Up,       ///< Healthy, serving at full speed.
    Degraded, ///< Straggling: serving with a latency slowdown factor.
    Down,     ///< Crashed: owns nothing, accepts nothing.
};

/**
 * Callback receiving each live request's failure snapshot when the
 * replica crashes; the cluster re-dispatches or abandons them.
 */
using FailureHandler = std::function<void(const RequestFailureSnapshot &)>;

/**
 * A single model replica.
 */
class Replica
{
  public:
    /** Completion callback; it owns the finished request's record. */
    using CompletionFn = std::function<void(RequestRecord &&)>;

    /** Static configuration of a replica. */
    struct Config
    {
        ReplicaHwConfig hw;
        PerfModelParams perfParams{};

        /** Shared-prefix cache (disabled by default). */
        PrefixCacheConfig prefixCache{};
    };

    /**
     * @param eq Shared event queue.
     * @param cfg Hardware and engine configuration.
     * @param factory Scheduler factory invoked once with this
     *        replica's environment.
     * @param predictor Optional shared latency predictor handed to
     *        the scheduler (required by QoServe dynamic chunking).
     * @param tiers Tier table request specs refer to.
     * @param app_stats Per-application decode statistics.
     * @param on_complete Callback receiving each finished request's
     *        record, moved out of the request.
     */
    Replica(EventQueue &eq, Config cfg, const SchedulerFactory &factory,
            const LatencyPredictor *predictor, TierTable tiers,
            std::vector<AppStats> app_stats, CompletionFn on_complete);

    /** Destroys any still-live requests back into the pool. */
    ~Replica();

    /**
     * Admit a request at the current simulation time. @p resume is
     * null for a first dispatch; for a request re-dispatched after a
     * failure elsewhere it is the failed attempt's snapshot: prefill
     * restarts from chunk 0 and decode resumes from the snapshot's
     * emitted-token count. A kvResident snapshot is a disaggregated
     * handoff instead: the request arrives decoding, with its prompt
     * KV present, and skips the prefix cache.
     */
    void submit(const RequestSpec &spec,
                const RequestFailureSnapshot *resume = nullptr);

    /** Current health state. */
    ReplicaHealth health() const { return health_; }

    /** Current latency slowdown factor (1.0 when not straggling). */
    double slowdown() const { return slowdown_; }

    /**
     * Crash this replica: the in-flight batch is discarded (its
     * completion event cancelled), every KV block is released, the
     * scheduler is rebuilt from scratch (its queues died with the
     * process), and each live request's failure snapshot is handed to
     * the failure handler in request-id order. Panics when no failure
     * handler is installed (requests would be lost) or when already
     * down.
     */
    void fail();

    /** Restart a crashed replica: healthy, empty, ready for work. */
    void recover();

    /**
     * Set the straggler slowdown factor: batch latencies are
     * multiplied by @p factor. 1.0 restores full speed; > 1.0 marks
     * the replica Degraded. Invalid while Down.
     */
    void setSlowdown(double factor);

    /** Install the crash handler (the cluster's re-dispatch path). */
    void setFailureHandler(FailureHandler handler)
    {
        failureHandler_ = std::move(handler);
    }

    /** Crashes this replica has suffered. */
    std::uint64_t crashes() const { return crashes_; }

    /** Scheduler under this replica (for stats and tests). */
    const Scheduler &scheduler() const { return *scheduler_; }

    /** KV-cache manager (for tests). */
    const BlockManager &kv() const { return kv_; }

    /** Shared-prefix cache (for tests and stats aggregation). */
    const PrefixCache &prefixCache() const { return *prefixCache_; }

    /**
     * Prompt tokens of @p spec the local prefix cache could serve
     * right now (0 when down, or the cache is off or misses) — the
     * cache-affinity routing signal.
     */
    int probeCachedTokens(const RequestSpec &spec) const
    {
        if (health_ == ReplicaHealth::Down)
            return 0;
        return prefixCache_->probe(spec);
    }

    /**
     * Bypass prefix-cache admission: while set, newly submitted
     * requests prefill from scratch instead of attaching cached
     * blocks (the brownout controller's deepest degraded mode —
     * attaching pins blocks that overloaded KV needs for batching).
     * Existing attachments and the cache contents are untouched, and
     * affinity probes still answer, so clearing the bit restores full
     * behaviour instantly.
     */
    void setPrefixBypass(bool bypass) { prefixBypass_ = bypass; }

    /** True while prefix-cache admission is bypassed. */
    bool prefixBypass() const { return prefixBypass_; }

    /** Total batches executed. */
    std::uint64_t iterations() const { return iterations_; }

    /** Total time the engine was executing batches. */
    SimDuration busyTime() const { return busyTime_; }

    /** Requests currently owned (not yet completed). */
    std::size_t liveRequests() const { return live_.size(); }

    /** Install a per-batch observer (may be empty). */
    void setBatchObserver(BatchObserver obs) { observer_ = std::move(obs); }

    /**
     * Attach an invariant auditor (not owned; may be null to
     * detach). Its onIterationComplete() hook runs after every
     * completed batch, when the scheduler and KV cache are at rest.
     */
    void attachAuditor(InvariantAuditor *auditor) { auditor_ = auditor; }

    /**
     * Attach a lifecycle trace sink (not owned; null detaches).
     * @p replica_id stamps every event this replica emits. The
     * scheduler environment points at the same scope, so emission
     * stays wired across crash-time scheduler rebuilds.
     */
    void setTraceSink(TraceSink *sink, ReplicaId replica_id)
    {
        trace_.sink = sink;
        trace_.clock = &eq_;
        trace_.replica = replica_id.value();
    }

  private:
    void maybeStartIteration();
    void completeIteration();
    void buildScheduler();

    EventQueue &eq_;
    PerfModel perf_;
    BlockManager kv_;

    /** Declared after kv_ (it installs the eviction handler there)
     *  and destroyed before it. */
    std::unique_ptr<PrefixCache> prefixCache_;

    std::unique_ptr<Scheduler> scheduler_;
    SchedulerFactory factory_;
    const LatencyPredictor *predictor_ = nullptr;
    TierTable tiers_;
    std::vector<AppStats> appStats_;
    CompletionFn onComplete_;
    BatchObserver observer_;
    FailureHandler failureHandler_;
    InvariantAuditor *auditor_ = nullptr;

    /** Stable trace handle; SchedulerEnv::trace points here. */
    TraceScope trace_;

    /** Slab pool the live requests live in. Declared before live_ and
     *  the scheduler state so it outlives every raw Request*. */
    RequestPool pool_;

    std::unordered_map<std::uint64_t, Request *> live_;
    bool busy_ = false;
    std::uint64_t iterations_ = 0;
    SimDuration busyTime_ = 0.0;

    ReplicaHealth health_ = ReplicaHealth::Up;
    double slowdown_ = 1.0;
    std::uint64_t crashes_ = 0;
    bool prefixBypass_ = false;

    /** In-flight completion event, for cancellation on crash. */
    EventId inflightEvent_ = 0;
    SimTime inflightStart_;

    /**
     * The batch being executed. Only one batch is ever in flight, so
     * it lives here instead of inside the completion closure: the
     * closure then captures nothing but `this` (fits std::function's
     * small-buffer storage — no per-iteration heap allocation) and
     * the chunk/decode vectors keep their capacity across
     * iterations.
     */
    Batch inflightBatch_;
    SimDuration inflightLatency_ = 0.0;
};

} // namespace qoserve

#endif // QOSERVE_CLUSTER_REPLICA_HH
