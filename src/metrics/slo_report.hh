/**
 * @file
 * SLO accounting over completed-request records.
 *
 * Implements the measurement conventions of §4: a request violates
 * its SLO when its TTFT (interactive tiers) or TTLT (non-interactive
 * tiers) exceeds the tier target; requests are "long" when their
 * prompt is at or above the trace's 90th percentile; goodput counts
 * requests served while the per-tier p99 latency meets the SLO with
 * at most 1% violations.
 */

#ifndef QOSERVE_METRICS_SLO_REPORT_HH
#define QOSERVE_METRICS_SLO_REPORT_HH

#include <functional>
#include <vector>

#include "sched/request.hh"
#include "workload/qos.hh"

namespace qoserve {

/**
 * Sink for completed-request records.
 *
 * By default every record is retained in completion order for
 * post-run summarization. For scale runs that would hold millions of
 * records, attach a streaming sink (setRecordSink) and disable
 * retention (setRetainRecords(false)): each record is then handed to
 * the sink at completion time and dropped, keeping memory flat in the
 * trace length. The sink observes the exact sequence records() would
 * have held, so a streaming CSV writer produces byte-identical output
 * to the buffered writer.
 */
class MetricsCollector
{
  public:
    /** Per-record streaming callback (completion order). */
    using RecordSink = std::function<void(const RequestRecord &)>;

    /** @param tiers Tier table the records' tierId fields refer to. */
    explicit MetricsCollector(TierTable tiers);

    /** Record a completed request. Callers that are done with the
     *  record move it in; the sink and observers see it first. */
    void record(RequestRecord rec);

    /** Presize the record store for @p count records, so a run of
     *  known length allocates it once. A no-op while retention is
     *  off: a streaming run keeps nothing and must not pay. */
    void
    reserve(std::size_t count)
    {
        if (retain_)
            records_.reserve(count);
    }

    /** All records, in completion order. Empty when retention is
     *  disabled — use totalRecorded() for the count. */
    const std::vector<RequestRecord> &records() const { return records_; }

    /** Tier table. */
    const TierTable &tiers() const { return tiers_; }

    /** Number of retained records. */
    std::size_t size() const { return records_.size(); }

    /** Records seen, retained or not. */
    std::size_t totalRecorded() const { return totalRecorded_; }

    /** Invoke @p sink on every subsequent record (at completion). */
    void setRecordSink(RecordSink sink) { sink_ = std::move(sink); }

    /**
     * Attach an additional read-only observer invoked (in attach
     * order, after the primary sink) on every subsequent record.
     * Unlike the single replaceable sink — the memory-saving output
     * channel — observers compose: the streaming CSV writer, the
     * sketch feeder, and the SLO monitor can all watch one run.
     */
    void addRecordObserver(RecordSink observer);

    /** Toggle in-memory retention (default on). Summaries require
     *  retention; streaming-only runs must compute their own. */
    void setRetainRecords(bool retain) { retain_ = retain; }

  private:
    TierTable tiers_;
    std::vector<RequestRecord> records_;
    RecordSink sink_;
    std::vector<RecordSink> observers_;
    std::size_t totalRecorded_ = 0;
    bool retain_ = true;
};

/** True if the record violated its tier's headline SLO. */
bool violatedSlo(const RequestRecord &rec, const QosTier &tier);

/**
 * True if an interactive record violated its TBT SLO: more than 1%
 * of its tokens (and at least two) missed their Eq. 2 deadlines.
 * Always false for non-interactive tiers. The paper tracks this
 * separately from headline violations because chunk sizing keeps it
 * under 0.1% in their testbed; PolyServe-style experiments (§4.5.2)
 * need it counted explicitly.
 */
bool violatedTbtSlo(const RequestRecord &rec, const QosTier &tier);

/** Latency the headline SLO constrains: TTFT or TTLT. */
double headlineLatency(const RequestRecord &rec, const QosTier &tier);

/** Per-tier summary statistics. */
struct TierSummary
{
    int tierId = 0;
    std::size_t count = 0;
    double p50Ttft = 0.0;
    double p95Ttft = 0.0;
    double p99Ttft = 0.0;
    double p50Ttlt = 0.0;
    double p95Ttlt = 0.0;
    double p99Ttlt = 0.0;
    double violationRate = 0.0; ///< Fraction in [0, 1].
    double tbtMissRate = 0.0;   ///< Fraction of requests with TBT misses.
};

/** Whole-run summary. */
struct RunSummary
{
    std::size_t count = 0;
    double violationRate = 0.0;

    /** Violations counting TBT SLO misses as well (see
     *  violatedTbtSlo). */
    double violationRateWithTbt = 0.0;
    double importantViolationRate = 0.0;
    double shortViolationRate = 0.0;
    double longViolationRate = 0.0;
    double relegatedFraction = 0.0;
    double rejectedFraction = 0.0;
    double p50Latency = 0.0; ///< Headline latency across requests.
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    std::vector<TierSummary> tiers;

    /**
     * Fraction of requests fully served — neither rejected at the
     * front door nor abandoned after exhausting the retry budget.
     * 1.0 on fault-free, admission-free runs.
     */
    double availability = 1.0;

    /** Fraction abandoned after exhausting the retry budget. */
    double retryExhaustedFraction = 0.0;

    /** Mean failure re-dispatches per request. */
    double meanRetries = 0.0;

    /** Fraction of requests that were re-dispatched at least once. */
    double failureAffectedFraction = 0.0;

    /**
     * Fraction of all requests that both touched the failure path
     * (retried or abandoned) and violated their SLO — the
     * failure-attributed share of the violation rate.
     */
    double failureViolationRate = 0.0;

    /** True when any record shows failure/retry involvement; output
     *  writers gate their fault sections on this so fault-free runs
     *  keep their exact historical format. */
    bool
    hasFaultActivity() const
    {
        return meanRetries > 0.0 || retryExhaustedFraction > 0.0;
    }

    /** Fraction of requests served with a cached prefix attached
     *  (shared-prefix KV cache hits). */
    double prefixHitFraction = 0.0;

    /** Prompt tokens served from the prefix cache instead of being
     *  recomputed, as a fraction of all prompt tokens. */
    double prefixTokensSavedFraction = 0.0;

    /** Mean cached-prefix tokens per request, over all requests. */
    double meanCachedPrefixTokens = 0.0;

    /** True when any record reused a cached prefix; output writers
     *  gate their prefix-cache sections on this so cache-off runs
     *  keep their exact historical format. */
    bool
    hasPrefixActivity() const
    {
        return prefixHitFraction > 0.0;
    }
};

/**
 * Summarize a collector's records.
 *
 * @param collector Completed records plus tier table.
 * @param long_percentile Prompt-length percentile splitting
 *        short/long (paper: 90).
 */
RunSummary summarize(const MetricsCollector &collector,
                     double long_percentile = 90.0);

/** One point of a rolling-percentile time series. */
struct RollingPoint
{
    SimTime windowStart;
    double value = 0.0;
    std::size_t count = 0;
};

/**
 * Rolling percentile of headline latency versus *arrival* time,
 * optionally restricted to one tier — the measurement behind the
 * Fig. 13 timelines.
 *
 * @param collector Records to analyse.
 * @param window Window width in seconds (paper: 60).
 * @param pct Percentile in [0, 100] (paper: 99).
 * @param tier_id Restrict to this tier, or -1 for all.
 * @param important_only Restrict to important requests.
 */
std::vector<RollingPoint> rollingLatency(const MetricsCollector &collector,
                                         SimDuration window, double pct,
                                         int tier_id = -1,
                                         bool important_only = false);

} // namespace qoserve

#endif // QOSERVE_METRICS_SLO_REPORT_HH
