/**
 * @file
 * QoS classes, SLO targets and deadline arithmetic.
 *
 * Mirrors §3.2 of the paper. A tier is either interactive — with TTFT
 * (time-to-first-token) and TBT (time-between-tokens) SLOs — or
 * non-interactive with a single TTLT (time-to-last-token) SLO.
 * Deadline formulas are Eqs. (1)-(3):
 *
 *   D_first = t_arrival + SLO_TTFT
 *   D_n     = t_arrival + SLO_TTFT + (n - 1) * SLO_TBT
 *   D_total = t_arrival + SLO_TTLT
 */

#ifndef QOSERVE_WORKLOAD_QOS_HH
#define QOSERVE_WORKLOAD_QOS_HH

#include <string>
#include <vector>

#include "core/units.hh"

namespace qoserve {

/**
 * One QoS service tier.
 */
struct QosTier
{
    /** Position of this tier in its TierTable. */
    int id = 0;

    /** Display name, e.g. "Q1". */
    std::string name;

    /** True for interactive (TTFT+TBT) tiers. */
    bool interactive = false;

    /** TTFT SLO in seconds (interactive tiers only). */
    SimDuration ttftSlo = kDurationNever;

    /** TBT SLO in seconds (interactive tiers only). */
    SimDuration tbtSlo = kDurationNever;

    /** TTLT SLO in seconds (non-interactive tiers only). */
    SimDuration ttltSlo = kDurationNever;

    /** Deadline for the first output token (Eq. 1). */
    SimTime firstTokenDeadline(SimTime arrival) const;

    /**
     * Deadline for the n-th output token, n >= 1 (Eq. 2).
     *
     * Non-interactive tiers have no per-token deadline; returns
     * kTimeNever for them.
     */
    SimTime tokenDeadline(SimTime arrival, int n) const;

    /**
     * Completion deadline (Eq. 3 for non-interactive tiers; for
     * interactive tiers this is the deadline of the final token).
     *
     * @param decode_tokens Number of output tokens the request emits.
     */
    SimTime completionDeadline(SimTime arrival, TokenCount decode_tokens) const;

    bool operator==(const QosTier &) const = default;
};

/** An indexed set of tiers used by one experiment. */
using TierTable = std::vector<QosTier>;

/** Make an interactive tier with the given SLOs. */
QosTier interactiveTier(int id, const std::string &name,
                        SimDuration ttft_slo, SimDuration tbt_slo);

/** Make a non-interactive tier with the given TTLT SLO. */
QosTier batchTier(int id, const std::string &name, SimDuration ttlt_slo);

/**
 * The paper's Table 3 tier set: Q1 interactive (TTFT 6 s, TBT 50 ms),
 * Q2 batch (TTLT 600 s), Q3 batch (TTLT 1800 s).
 */
TierTable paperTierTable();

/**
 * The alternative SLO set from §4.4.2: Q1 (3 s, 50 ms),
 * Q2 (6 s, 50 ms), Q3 (TTLT 1000 s).
 */
TierTable strictTierTable();

} // namespace qoserve

#endif // QOSERVE_WORKLOAD_QOS_HH
