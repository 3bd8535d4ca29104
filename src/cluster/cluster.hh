/**
 * @file
 * Multi-replica cluster simulation with configurable routing.
 *
 * Reproduces the paper's deployment modes:
 *  - shared cluster: one replica group serves every tier with
 *    round-robin load balancing (QoServe's co-scheduling, §4.1);
 *  - siloed deployment: one replica group per QoS tier, each sized
 *    independently (the SOTA baseline of Fig. 1 / Table 4).
 */

#ifndef QOSERVE_CLUSTER_CLUSTER_HH
#define QOSERVE_CLUSTER_CLUSTER_HH

#include <memory>
#include <vector>

#include "audit/invariant_auditor.hh"
#include "cluster/admission.hh"
#include "cluster/replica.hh"
#include "metrics/slo_report.hh"

namespace qoserve {

/**
 * Load-balancing policy of a replica group.
 *
 * The paper's deployments use round-robin ("Both deployments use
 * round-robin load balancing across replicas", §4.1.1); the other
 * policies are provided for the load-balancer ablation bench.
 */
enum class LoadBalancePolicy
{
    RoundRobin,    ///< Cycle through replicas (paper default).
    LeastLoaded,   ///< Fewest live (incomplete) requests.
    ShortestQueue, ///< Fewest pending prefill tokens.
};

/** Display name of a load-balancing policy. */
const char *loadBalanceName(LoadBalancePolicy policy);

/**
 * Re-dispatch policy for requests handed back by a failed replica:
 * capped exponential backoff with a bounded retry budget.
 */
struct RetryPolicy
{
    /** Re-dispatch attempts before a request is abandoned. */
    int maxRetries = 3;

    /** Backoff before the first re-dispatch, seconds. */
    SimDuration initialBackoff = 0.05;

    /** Backoff growth per attempt. */
    static constexpr double kBackoffMultiplier = 2.0;

    /** Backoff ceiling, seconds. */
    static constexpr SimDuration kMaxBackoff = 2.0;

    /** Backoff before attempt @p attempt (0-based). */
    SimDuration backoffFor(int attempt) const;
};

/**
 * Per-replica circuit breaker at the cluster front door.
 *
 * A replica accumulating @p failureThreshold consecutive dispatch
 * failures (requests routed to it that bounced off a dead process) is
 * taken out of the routing set for @p cooldown seconds. After the
 * cooldown the breaker is half-open: the replica re-enters the
 * candidate set and the next dispatch routed to it is the probe — on
 * success the breaker closes, on failure it re-trips for another
 * cooldown. Threshold 0 (the default) disables the breaker entirely;
 * no state is consulted and routing is bit-identical to a build
 * without it.
 */
struct CircuitBreakerConfig
{
    /** Consecutive dispatch failures before tripping (0 = off). */
    int failureThreshold = 0;

    /** Seconds a tripped breaker stays open before half-open. */
    SimDuration cooldown = 1.0;

    /** True when the breaker participates in routing. */
    bool enabled() const { return failureThreshold > 0; }
};

/**
 * Degraded service modes the brownout controller steps through under
 * sustained overload (DESIGN.md §13). All fields at their defaults
 * mean full service.
 */
struct DegradedModes
{
    /** Cap on decode tokens per request (0 = uncapped). */
    int capTokens = 0;

    /** Tier whose arrivals are shed unserved (-1 = none). */
    int shedTier = -1;

    /** Bypass prefix-cache admission on every replica. */
    bool bypassCache = false;
};

/**
 * A cluster of replicas executing one trace.
 */
class ClusterSim
{
  public:
    /** Cluster-wide configuration. */
    struct Config
    {
        Replica::Config replica;

        /** Shared latency predictor; may be null for fixed-chunk
         *  policies. Not owned. */
        const LatencyPredictor *predictor = nullptr;

        /** Front-door admission control (default: admit all). */
        AdmissionController::Config admission{};

        /** Re-dispatch policy after replica failures. */
        RetryPolicy retry{};

        /**
         * Health-aware routing: skip down replicas and de-weight
         * stragglers when picking a target. With every replica
         * healthy the choice is identical to blind routing, so this
         * costs nothing on fault-free runs. Disable to model a
         * health-oblivious front door (the ext_failures baseline).
         */
        bool healthAwareRouting = true;

        /**
         * Cache-affinity routing: before the group's load-balancing
         * policy runs, probe every usable replica's prefix cache and
         * route to the one with the longest cached prefix of the
         * request's prompt (ties to the lowest replica index). A
         * zero-length match everywhere falls through to the normal
         * policy untouched (round-robin state is not advanced by an
         * affinity hit), so with the prefix cache off — every probe
         * returns zero — routing is bit-identical to this flag off.
         * Requires the replica prefix cache to be enabled.
         */
        bool cacheAffinityRouting = false;

        /** Per-replica circuit breaker (off by default). */
        CircuitBreakerConfig breaker{};

        /**
         * Deadline-aware cancellation: when a failed request enters
         * the retry path, abandon it immediately if even an
         * optimistic lower bound on its remaining service time —
         * one full-prefill iteration plus one minimal decode
         * iteration per remaining token, starting after the backoff —
         * already overshoots its completion deadline. Burning a retry
         * (and KV on the target replica) on it cannot possibly meet
         * the SLO. Off by default; the record reuses the
         * retryExhausted flag so the records CSV schema is unchanged.
         */
        bool deadlineCancel = false;
    };

    /**
     * @param cfg Cluster configuration.
     * @param trace Workload to execute (copied).
     */
    ClusterSim(Config cfg, Trace trace);

    /**
     * Add @p count replicas running schedulers from @p factory.
     *
     * @param count Replica count.
     * @param factory Scheduler factory.
     * @param lb Load-balancing policy within the group.
     * @param stage_done When set, the group is a pipeline stage (a
     *        disaggregated deployment's prefill pool): its audited
     *        records go to this handler instead of the collector,
     *        and a later stage records the request.
     * @return Group id for routeTier().
     */
    int addReplicaGroup(int count, const SchedulerFactory &factory,
                        LoadBalancePolicy lb =
                            LoadBalancePolicy::RoundRobin,
                        MetricsCollector::RecordSink stage_done = {});

    /**
     * Route a tier's requests to a replica group (siloed mode).
     * Without any routing calls, all tiers go to group 0.
     */
    void routeTier(int tier_id, int group_id);

    /**
     * Inject all arrivals, run to completion, and return metrics.
     *
     * Every request runs to completion (arrival injection stops at
     * the end of the trace; the queues then drain), so summaries
     * carry no survivorship bias even under overload.
     */
    const MetricsCollector &run();

    /** Metrics collected so far. */
    const MetricsCollector &metrics() const { return metrics_; }

    /** Mutable collector access, for attaching a streaming record
     *  sink or disabling retention before run(). */
    MetricsCollector &metricsCollector() { return metrics_; }

    /**
     * Audit a request's final record and collect it: the path every
     * replica completion and unserved request takes, open to a
     * pipeline that finishes a request between stages.
     */
    void record(RequestRecord &&rec);

    /** Replica access (stats, observers). */
    Replica &replica(std::size_t i) { return *replicas_[i]; }
    const Replica &replica(std::size_t i) const { return *replicas_[i]; }

    /** Number of replicas across all groups. */
    std::size_t numReplicas() const { return replicas_.size(); }

    /** GPUs consumed by the whole cluster. */
    int totalGpus() const;

    /** The shared event queue (tests and observers). */
    EventQueue &eventQueue() { return eq_; }

    /** Admission statistics. */
    const AdmissionController &admission() const { return admission_; }

    /** Requests abandoned after exhausting their retry budget. */
    std::uint64_t retriesExhausted() const { return retriesExhausted_; }

    /** Re-dispatch attempts performed across all requests. */
    std::uint64_t redispatches() const { return redispatches_; }

    /** Requests abandoned by deadline-aware cancellation. */
    std::uint64_t deadlineCancelled() const { return deadlineCancelled_; }

    /** Circuit-breaker trips across all replicas (incl. re-trips). */
    std::uint64_t breakerTrips() const { return breakerTrips_; }

    /** True when replica @p i's breaker is currently open (still in
     *  cooldown at the current simulation time). */
    bool breakerOpen(std::size_t i) const;

    /**
     * Blind the front door to replica @p i: routing decisions see a
     * snapshot of its state taken now (health, slowdown, load, queue
     * depth) instead of the live values, and its prefix cache can no
     * longer be probed — the control-plane-partition semantics of
     * DESIGN.md §13. Dispatches to a stale-viewed-up but actually
     * dead replica fail into the retry path like any dispatch to a
     * dead process. Idempotent per replica; no effect on replicas
     * never blinded, so an unpartitioned run is bit-identical to a
     * build without views.
     */
    void blindReplica(std::size_t i);

    /** Restore live visibility of replica @p i. */
    void unblindReplica(std::size_t i);

    /** Replicas currently blinded by a control-plane partition. */
    std::size_t blindedReplicas() const;

    /**
     * Apply (or update) the brownout controller's degraded modes.
     * Token capping and tier shedding act on subsequent arrivals at
     * the front door; the cache-bypass bit propagates to every
     * replica immediately.
     */
    void applyDegradedModes(const DegradedModes &modes);

    /** Degraded modes currently in force. */
    const DegradedModes &degradedModes() const { return modes_; }

    /** Arrivals shed unserved by the brownout controller. */
    std::uint64_t brownoutShed() const { return brownoutShed_; }

    /** Arrivals whose decode budget was capped by the brownout. */
    std::uint64_t brownoutCapped() const { return brownoutCapped_; }

    /** Tier table of the executing trace (workload vocabulary for
     *  controllers attached to this cluster). */
    const TierTable &tiers() const { return trace_.tiers; }

    /** Arrival time of the trace's last request (SimTime{} when the
     *  trace is empty): the fault injector's horizon. */
    SimTime
    lastArrival() const
    {
        return trace_.requests.empty() ? SimTime{}
                                       : trace_.requests.back().arrival;
    }

    /**
     * The active invariant auditor, or null when the build has checks
     * off and no auditor was installed.
     */
    InvariantAuditor *auditor() { return auditor_; }

    /**
     * Replace the auditor (not owned; null detaches). Call before
     * addReplicaGroup() so every replica sees it. Tests use this to
     * install a failFast-disabled auditor and inspect violations.
     */
    void setAuditor(InvariantAuditor *auditor);

    /**
     * Attach a lifecycle trace sink (not owned; null detaches).
     * Propagates to every replica, present and future — the front
     * door, admission controller, schedulers, and fault injector all
     * emit through it. With no sink attached every emission site is
     * an inlined null check.
     */
    void setTraceSink(TraceSink *sink);

    /** The attached trace sink, or null (the fault injector's way
     *  in). */
    TraceSink *traceSink() const { return traceScope_.sink; }

  private:
    struct Group
    {
        std::vector<std::size_t> replicaIdx;
        std::size_t nextRr = 0;
        LoadBalancePolicy lb = LoadBalancePolicy::RoundRobin;
    };

    /** pickReplica result when every replica in the group is down. */
    static constexpr std::size_t kNoReplica =
        static_cast<std::size_t>(-1);

    /**
     * The front door's (possibly stale) view of one replica. While a
     * control-plane partition blinds the replica, routing reads the
     * snapshot taken at partition start instead of live state.
     */
    struct ReplicaView
    {
        bool stale = false;
        ReplicaHealth health = ReplicaHealth::Up;
        double slowdown = 1.0;
        std::size_t liveRequests = 0;
        std::int64_t pendingPrefillTokens = 0;
    };

    /** Per-replica circuit-breaker state. */
    struct BreakerState
    {
        int consecutiveFailures = 0;
        bool open = false;
        SimTime reopenAt;
    };

    std::size_t pickReplica(Group &group, const RequestSpec &spec) const;
    void injectArrival(std::size_t index);

    /** Routing view of replica @p idx (stale while partitioned). */
    ReplicaHealth viewedHealth(std::size_t idx) const;
    double viewedSlowdown(std::size_t idx) const;
    std::size_t viewedLiveRequests(std::size_t idx) const;
    std::int64_t viewedPendingPrefillTokens(std::size_t idx) const;

    /** True when the view of @p idx is a stale partition snapshot. */
    bool viewStale(std::size_t idx) const
    {
        return !views_.empty() && views_[idx].stale;
    }

    /** A dispatch routed to @p idx bounced off a dead process. */
    void noteDispatchFailure(std::size_t idx);

    /** A dispatch routed to @p idx reached a live process. */
    void noteDispatchSuccess(std::size_t idx);

    /**
     * Send a request to a replica of its tier's group. @p retry is
     * null on the first attempt and the failed attempt's snapshot on
     * a re-dispatch. A pick that finds no usable replica, or lands on
     * a dead one, enters the retry path; only a first attempt that
     * reaches a live replica faces admission control.
     */
    void dispatch(const RequestSpec &spec,
                  const RequestFailureSnapshot *retry);

    /**
     * True when @p snap's completion deadline is unreachable even
     * under the optimistic service lower bound, starting no earlier
     * than @p earliest_start.
     */
    bool deadlineUnreachable(const RequestFailureSnapshot &snap,
                             SimTime earliest_start) const;

    /**
     * Enter the retry path for @p snap: schedule a backed-off
     * re-dispatch, or record the request as retry-exhausted when its
     * budget is spent.
     */
    void requeue(RequestFailureSnapshot snap);

    /**
     * Record a request that ends unserved, with infinite latencies:
     * rejected (admission or brownout shed) when @p abandoned is
     * null, else abandoned in the retry path with its partial
     * progress. The caller's counter and trace event tell the
     * endings apart.
     */
    void recordUnserved(const RequestSpec &spec,
                        const RequestFailureSnapshot *abandoned);

    Config cfg_;
    Trace trace_;
    EventQueue eq_;
    std::unique_ptr<InvariantAuditor> ownedAuditor_;
    InvariantAuditor *auditor_ = nullptr;
    std::vector<std::unique_ptr<Replica>> replicas_;
    std::vector<Group> groups_;
    std::vector<int> tierRoute_;
    MetricsCollector metrics_;
    AdmissionController admission_;

    /** Front-door trace handle (replica -1); replicas own their own. */
    TraceScope traceScope_;
    bool ran_ = false;
    std::uint64_t retriesExhausted_ = 0;
    std::uint64_t redispatches_ = 0;
    std::uint64_t deadlineCancelled_ = 0;

    /**
     * Stale routing views; empty until the first blindReplica() call,
     * so an unpartitioned run pays one emptiness check per lookup and
     * routes on live state exactly as before.
     */
    std::vector<ReplicaView> views_;

    /** Breaker state; empty until the breaker is enabled. */
    std::vector<BreakerState> breakers_;
    std::uint64_t breakerTrips_ = 0;

    /** Degraded modes in force (brownout controller). */
    DegradedModes modes_;
    std::uint64_t brownoutShed_ = 0;
    std::uint64_t brownoutCapped_ = 0;

    /**
     * Execution model mirroring the replicas' — prices the optimistic
     * remaining-service lower bound of deadline-aware cancellation.
     */
    PerfModel perf_;
};

/**
 * Convert a trace to its PD-disaggregated prefill-stage form: every
 * request emits exactly one token (the first token produced by the
 * prefill node); decode happens in a separate pool whose SLO
 * attainment is identical across schedulers (§4.1.3).
 */
Trace toPrefillOnlyTrace(Trace trace);

} // namespace qoserve

#endif // QOSERVE_CLUSTER_CLUSTER_HH
