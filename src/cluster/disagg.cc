/**
 * @file
 * Disaggregated serving implementation.
 */

#include "cluster/disagg.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace qoserve {

namespace {

/**
 * @p trace in prefill-stage form: a request "completes" on the
 * prefill pool when its first token is produced. The appStats stay
 * those of the input trace, so prefill schedulers rank requests by
 * their applications' real decode lengths.
 */
Trace
prefillStageTrace(Trace trace)
{
    for (RequestSpec &spec : trace.requests)
        spec.decodeTokens = 1;
    return trace;
}

} // namespace

DisaggCluster::DisaggCluster(Config cfg, Trace trace)
    : cfg_(std::move(cfg)), trace_(std::move(trace)),
      cluster_({.replica = cfg_.replica, .predictor = cfg_.predictor},
               prefillStageTrace(trace_))
{
    QOSERVE_ASSERT(cfg_.numPrefillReplicas > 0 &&
                       cfg_.numDecodeReplicas > 0,
                   "pools must be non-empty");
    QOSERVE_ASSERT(cfg_.prefillFactory != nullptr,
                   "prefill factory required");
    // onPrefillDone() finds a request's full spec by its id.
    for (std::size_t i = 0; i < trace_.requests.size(); ++i) {
        QOSERVE_ASSERT(trace_.requests[i].id == i,
                       "disaggregated trace needs ids dense from 0 in "
                       "arrival order; request ",
                       i, " has id ", trace_.requests[i].id);
    }

    SimDuration strictest_tbt = kDurationNever;
    for (const QosTier &tier : trace_.tiers) {
        if (tier.interactive)
            strictest_tbt = std::min(strictest_tbt, tier.tbtSlo);
    }
    if (strictest_tbt == kDurationNever)
        strictest_tbt = 0.1; // No interactive tier: loose default.

    // Every tier routes to group 0, the prefill pool; the decode
    // group is reached only through onPrefillDone().
    cluster_.addReplicaGroup(
        cfg_.numPrefillReplicas, cfg_.prefillFactory,
        LoadBalancePolicy::RoundRobin,
        [this](const RequestRecord &rec) { onPrefillDone(rec); });
    cluster_.addReplicaGroup(
        cfg_.numDecodeReplicas,
        [policy = cfg_.decodePolicy,
         strictest_tbt](const SchedulerEnv &env) {
            return std::make_unique<DecodeScheduler>(env, policy,
                                                     strictest_tbt);
        });
}

void
DisaggCluster::onPrefillDone(const RequestRecord &rec)
{
    const RequestSpec &spec = trace_.requests[rec.spec.id];
    SimTime first_token = rec.finishTime;

    // Transfer the prompt KV to the decode pool.
    double bytes =
        static_cast<double>(spec.promptTokens) *
        static_cast<double>(cfg_.replica.hw.model.kvBytesPerToken());
    kvBytesTransferred_ += bytes;
    SimDuration delay = bytes / Config::kKvTransferBandwidth;

    cluster_.eventQueue().scheduleAfter(delay, [this, &spec,
                                                first_token]() {
        if (spec.decodeTokens == 1) {
            // The prefill stage emitted the only token.
            RequestRecord done;
            done.spec = spec;
            done.firstTokenTime = first_token;
            done.finishTime = first_token;
            cluster_.record(std::move(done));
            return;
        }
        // A handoff, not an arrival: no admission verdict and no
        // brownout gate.
        RequestFailureSnapshot handoff{spec};
        handoff.kvResident = true;
        handoff.firstTokenTime = first_token;
        std::size_t idx = static_cast<std::size_t>(
                              cfg_.numPrefillReplicas) +
                          decodeRr_;
        cluster_.replica(idx).submit(spec, &handoff);
        decodeRr_ = (decodeRr_ + 1) % static_cast<std::size_t>(
                                          cfg_.numDecodeReplicas);
    });
}

} // namespace qoserve
