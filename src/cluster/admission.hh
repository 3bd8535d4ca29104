/**
 * @file
 * Admission control at the cluster front door.
 *
 * Implements the overload-management baselines of §2.2 that QoServe's
 * eager relegation is designed to replace:
 *
 *  - RateLimit: a token bucket rejecting traffic beyond a configured
 *    rate, "without considering their relative importance";
 *  - LoadShed: reject when the target replica's prefill backlog
 *    exceeds a threshold (naive throttling at capacity).
 *
 * Rejected requests never execute; their records carry the rejected
 * flag and count as SLO violations, which is exactly the trade-off
 * the paper contrasts with relegation's "eventual completion without
 * permanent rejection".
 */

#ifndef QOSERVE_CLUSTER_ADMISSION_HH
#define QOSERVE_CLUSTER_ADMISSION_HH

#include <cstdint>

#include "obs/trace_sink.hh"
#include "workload/trace.hh"

namespace qoserve {

/** Front-door admission policy. */
enum class AdmissionPolicy
{
    None,      ///< Admit everything (the paper's deployments).
    RateLimit, ///< Token-bucket rate limiting.
    LoadShed,  ///< Reject when the target backlog is too deep.
};

/**
 * Stateful admission controller, one per cluster.
 */
class AdmissionController
{
  public:
    /** Configuration. */
    struct Config
    {
        AdmissionPolicy policy = AdmissionPolicy::None;

        /** RateLimit: sustained admission rate, requests/second. */
        double rateLimitQps = 0.0;

        /** RateLimit: bucket depth, requests. */
        double burstSize = 16.0;

        /** LoadShed: max pending prefill tokens on the target. */
        std::int64_t maxBacklogTokens = 0;
    };

    explicit AdmissionController(Config cfg);

    /**
     * Decide whether to admit a request arriving at @p now onto a
     * replica whose prefill queue holds @p target_backlog prompt
     * tokens. Consumes token-bucket budget on admission.
     */
    bool admit(const RequestSpec &spec, SimTime now,
               TokenCount target_backlog);

    /** Requests rejected so far. */
    std::uint64_t rejected() const { return rejected_; }

    /** Requests admitted so far. */
    std::uint64_t admitted() const { return admitted_; }

    /** Attach the cluster's trace handle (not owned; null detaches)
     *  so rejections appear in the lifecycle trace. */
    void setTrace(const TraceScope *trace) { trace_ = trace; }

  private:
    Config cfg_;
    const TraceScope *trace_ = nullptr;
    double bucket_;
    SimTime lastRefill_;
    std::uint64_t rejected_ = 0;
    std::uint64_t admitted_ = 0;
};

} // namespace qoserve

#endif // QOSERVE_CLUSTER_ADMISSION_HH
