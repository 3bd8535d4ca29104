/**
 * @file
 * Prefill-decode disaggregated serving.
 *
 * Models the full disaggregated pipeline of §4.1.3: requests prefill
 * on a dedicated prefill pool (running any iteration scheduler —
 * QoServe's prioritization and relegation apply directly there),
 * their KV cache is transferred over the interconnect, and decode
 * proceeds on a separate decode pool under a DecodeScheduler
 * (sched/decode_scheduler.hh has the two decode policies).
 */

#ifndef QOSERVE_CLUSTER_DISAGG_HH
#define QOSERVE_CLUSTER_DISAGG_HH

#include "cluster/cluster.hh"
#include "sched/decode_scheduler.hh"

namespace qoserve {

/**
 * Full disaggregated deployment: one ClusterSim with two replica
 * groups. The prefill group (replicas [0, numPrefillReplicas)) takes
 * the trace in prefill-stage form (one output token per request) with
 * round-robin routing; each prefill completion schedules its KV
 * transfer, after which the request is handed to the decode group
 * (the remaining replicas), round robin, and recorded there.
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
    const MetricsCollector &run() { return cluster_.run(); }

    /** Metrics (final records are decode-stage completions). */
    const MetricsCollector &metrics() const { return cluster_.metrics(); }

    /** Total KV bytes moved between the pools. */
    double kvBytesTransferred() const { return kvBytesTransferred_; }

    /** The cluster both pools run in, for its auditor, trace sink
     *  and per-replica state. */
    ClusterSim &cluster() { return cluster_; }

  private:
    void onPrefillDone(const RequestRecord &rec);

    Config cfg_;
    Trace trace_;
    ClusterSim cluster_;
    std::size_t decodeRr_ = 0;
    double kvBytesTransferred_ = 0.0;
};

} // namespace qoserve

#endif // QOSERVE_CLUSTER_DISAGG_HH
