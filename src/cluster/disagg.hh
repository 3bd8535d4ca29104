/**
 * @file
 * Prefill-decode disaggregated serving.
 *
 * Models the full disaggregated pipeline of §4.1.3: requests prefill
 * on a dedicated prefill pool (running any iteration scheduler —
 * QoServe's prioritization and relegation apply directly there),
 * their KV cache is transferred over the interconnect, and decode
 * proceeds on a separate decode pool.
 *
 * The decode pool supports two policies:
 *
 *  - StrictestTbtCap — the paper's configuration: every admitted
 *    request decodes every iteration, with the batch capped so one
 *    iteration fits the *strictest* TBT among the configured tiers.
 *  - DeadlineAware — the paper's stated *future work* ("Efficiently
 *    supporting different TBT SLOs in the decode nodes"): requests
 *    are selected per iteration in next-token-deadline order while
 *    the predicted iteration time still meets the earliest selected
 *    deadline, so 100 ms-TBT requests naturally decode on alternate
 *    iterations and stop constraining 50 ms-TBT ones.
 */

#ifndef QOSERVE_CLUSTER_DISAGG_HH
#define QOSERVE_CLUSTER_DISAGG_HH

#include <deque>
#include <memory>
#include <vector>

#include "cluster/cluster.hh"

namespace qoserve {

/** Decode-pool scheduling policy. */
enum class DecodePolicy
{
    StrictestTbtCap, ///< Batch capped for the strictest tier's TBT.
    DeadlineAware,   ///< Per-iteration deadline-ordered selection.
};

/**
 * One decode-only replica of the disaggregated decode pool.
 */
class DecodeReplica
{
  public:
    /** Hard cap on concurrent decodes per iteration. */
    static constexpr int kMaxBatch = 256;

    /**
     * @param eq Shared event queue.
     * @param cfg Hardware configuration.
     * @param policy Batch-selection policy.
     * @param strictest_tbt Strictest TBT across tiers (cap sizing).
     * @param on_complete Completion callback.
     */
    DecodeReplica(EventQueue &eq, Replica::Config cfg,
                  DecodePolicy policy, SimDuration strictest_tbt,
                  Replica::CompletionFn on_complete);

    /**
     * Admit a decode-stage request (KV already transferred).
     * Takes ownership.
     */
    void admit(std::unique_ptr<Request> req);

    /** Requests currently decoding or waiting for a slot. */
    std::size_t load() const { return active_.size() + pending_.size(); }

    /** Iterations executed. */
    std::uint64_t iterations() const { return iterations_; }

    /** KV manager (tests). */
    const BlockManager &kv() const { return kv_; }

  private:
    void maybeStart();
    void completeIteration(const std::vector<Request *> &batch);
    std::vector<Request *> selectBatch();
    SimDuration iterTime(const std::vector<Request *> &batch) const;

    EventQueue &eq_;
    PerfModel perf_;
    BlockManager kv_;
    DecodePolicy policy_;
    SimDuration strictestTbt_;
    Replica::CompletionFn onComplete_;

    /** Requests with KV resident, eligible for iterations. */
    std::vector<Request *> active_;

    /** Per-iteration scratch of completeIteration(): finished
     *  requests. */
    std::vector<Request *> doneScratch_;

    /** Admitted but waiting for KV space / batch slots. */
    std::deque<Request *> pending_;

    std::unordered_map<std::uint64_t, std::unique_ptr<Request>> owned_;
    bool busy_ = false;
    std::uint64_t iterations_ = 0;
};

/**
 * Full disaggregated deployment: a prefill cluster, the KV transfer
 * and a decode pool. The prefill pool is a ClusterSim with one
 * round-robin group over the trace in prefill-stage form (one output
 * token per request); each prefill record schedules its transfer,
 * after which the request decodes on the decode pool, on the same
 * event queue.
 */
class DisaggCluster
{
  public:
    /** Configuration of the disaggregated deployment. */
    struct Config
    {
        /** Replica hardware (same for both pools). */
        Replica::Config replica;

        /** Prefill pool size. */
        int numPrefillReplicas = 1;

        /** Decode pool size. */
        int numDecodeReplicas = 1;

        /** Scheduler for the prefill replicas. */
        SchedulerFactory prefillFactory;

        /** Predictor for the prefill schedulers (may be null). */
        const LatencyPredictor *predictor = nullptr;

        /** Decode-pool policy. */
        DecodePolicy decodePolicy = DecodePolicy::StrictestTbtCap;

        /**
         * Effective KV-transfer bandwidth between pools, bytes/s
         * (NVLink/IB class; the transfer of a 2K-token Llama3-8B
         * context at 50 GB/s costs ~5 ms).
         */
        static constexpr double kKvTransferBandwidth = 50e9;
    };

    /**
     * @param cfg Deployment configuration.
     * @param trace Workload (copied); tiers define TBT targets. Its
     *        request ids must be dense from 0 in arrival order.
     */
    DisaggCluster(Config cfg, Trace trace);

    /** Run the full pipeline to completion and return metrics. */
    const MetricsCollector &run();

    /** Metrics (final records are decode-stage completions). */
    const MetricsCollector &metrics() const { return metrics_; }

    /** Total KV bytes moved between the pools. */
    double kvBytesTransferred() const { return kvBytesTransferred_; }

    /** Decode replica access (tests). */
    DecodeReplica &decodeReplica(std::size_t i) { return *decodePool_[i]; }

  private:
    void onPrefillDone(const RequestRecord &rec);

    Config cfg_;
    Trace trace_;
    ClusterSim prefill_;
    std::vector<std::unique_ptr<DecodeReplica>> decodePool_;
    std::size_t decodeRr_ = 0;
    MetricsCollector metrics_;
    double kvBytesTransferred_ = 0.0;
};

} // namespace qoserve

#endif // QOSERVE_CLUSTER_DISAGG_HH
