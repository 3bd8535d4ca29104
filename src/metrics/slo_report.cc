/**
 * @file
 * SLO accounting implementation.
 */

#include "metrics/slo_report.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/check_level.hh"
#include "metrics/percentile.hh"
#include "simcore/logging.hh"

namespace qoserve {

MetricsCollector::MetricsCollector(TierTable tiers)
    : tiers_(std::move(tiers))
{
    QOSERVE_ASSERT(!tiers_.empty(), "collector needs a tier table");
}

void
MetricsCollector::record(RequestRecord rec)
{
    QOSERVE_ASSERT(rec.spec.tierId >= 0 &&
                       rec.spec.tierId < static_cast<int>(tiers_.size()),
                   "record references unknown tier");
    ++totalRecorded_;
    if (sink_)
        sink_(rec);
    for (const RecordSink &observer : observers_)
        observer(rec);
    if (retain_)
        records_.push_back(std::move(rec));
}

void
MetricsCollector::addRecordObserver(RecordSink observer)
{
    QOSERVE_ASSERT(observer != nullptr,
                   "record observer must be callable");
    observers_.push_back(std::move(observer));
}

bool
violatedSlo(const RequestRecord &rec, const QosTier &tier)
{
    // Never-served requests violate unconditionally. Rejected records
    // fall out of the latency comparison anyway (infinite TTFT/TTLT),
    // but a retry-exhausted interactive request may have emitted its
    // first token before the crash that doomed it.
    if (rec.rejected || rec.retryExhausted)
        return true;
    if (tier.interactive)
        return rec.ttft() > tier.ttftSlo;
    return rec.ttlt() > tier.ttltSlo;
}

bool
violatedTbtSlo(const RequestRecord &rec, const QosTier &tier)
{
    if (!tier.interactive)
        return false;
    int budget = std::max(1, rec.spec.decodeTokens / 100);
    return rec.tbtDeadlineMisses > budget;
}

double
headlineLatency(const RequestRecord &rec, const QosTier &tier)
{
    return tier.interactive ? rec.ttft() : rec.ttlt();
}

RunSummary
summarize(const MetricsCollector &collector, double long_percentile)
{
    const auto &records = collector.records();
    const auto &tiers = collector.tiers();

    RunSummary out;
    out.count = records.size();
    if (records.empty())
        return out;

    // Long-request threshold over this run's prompt lengths, by
    // selection (no sort: the summary reads three order statistics
    // per sample). The same pass counts each tier's records, so the
    // per-tier samples below are allocated once, and the prompt
    // sample is freed before they are.
    struct TierAcc
    {
        std::vector<double> ttft;
        std::vector<double> ttlt;
        std::size_t count = 0;
        std::size_t viol = 0;
        std::size_t tbt_miss = 0;
    };
    std::vector<TierAcc> per_tier(tiers.size());
    double long_threshold = 0.0;
    {
        std::vector<double> prompts;
        prompts.reserve(records.size());
        for (const auto &r : records) {
            prompts.push_back(static_cast<double>(r.spec.promptTokens));
            ++per_tier[r.spec.tierId].count;
        }
        selectPercentiles(prompts, {&long_percentile, 1},
                          {&long_threshold, 1});
    }
    for (TierAcc &acc : per_tier) {
        acc.ttft.reserve(acc.count);
        acc.ttlt.reserve(acc.count);
    }

    std::size_t violations = 0;
    std::size_t violations_with_tbt = 0;
    std::size_t important = 0, important_viol = 0;
    std::size_t shorts = 0, short_viol = 0;
    std::size_t longs = 0, long_viol = 0;
    std::size_t relegated = 0;
    std::size_t rejected = 0;
    std::size_t exhausted = 0;
    std::size_t affected = 0, affected_viol = 0;
    std::int64_t total_retries = 0;
    std::size_t prefix_hits = 0;
    std::int64_t prefix_tokens = 0;
    std::int64_t prompt_tokens = 0;
    std::vector<double> latencies;
    latencies.reserve(records.size());

    for (const auto &r : records) {
        const QosTier &tier = tiers[r.spec.tierId];
        bool viol = violatedSlo(r, tier);
        violations += viol;
        violations_with_tbt += viol || violatedTbtSlo(r, tier);
        latencies.push_back(headlineLatency(r, tier));
        if (r.wasRelegated)
            ++relegated;
        if (r.rejected)
            ++rejected;
        if (r.retryExhausted)
            ++exhausted;
        total_retries += r.retries;
        prompt_tokens += r.spec.promptTokens;
        if (r.cachedPrefixTokens > 0) {
            ++prefix_hits;
            prefix_tokens += r.cachedPrefixTokens;
        }
        if (r.retries > 0 || r.retryExhausted) {
            ++affected;
            affected_viol += viol;
        }
        if (r.spec.important) {
            ++important;
            important_viol += viol;
        }
        bool is_long =
            static_cast<double>(r.spec.promptTokens) >= long_threshold;
        if (is_long) {
            ++longs;
            long_viol += viol;
        } else {
            ++shorts;
            short_viol += viol;
        }

        TierAcc &acc = per_tier[r.spec.tierId];
        acc.viol += viol;
        acc.tbt_miss += r.tbtDeadlineMisses > 0;
        acc.ttft.push_back(r.ttft());
        acc.ttlt.push_back(r.ttlt());
    }

    auto rate = [](std::size_t num, std::size_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                              static_cast<double>(den);
    };

    out.violationRate = rate(violations, records.size());
    out.violationRateWithTbt = rate(violations_with_tbt, records.size());
    out.importantViolationRate = rate(important_viol, important);
    out.shortViolationRate = rate(short_viol, shorts);
    out.longViolationRate = rate(long_viol, longs);
    out.relegatedFraction = rate(relegated, records.size());
    out.rejectedFraction = rate(rejected, records.size());
    out.retryExhaustedFraction = rate(exhausted, records.size());
    out.availability =
        rate(records.size() - rejected - exhausted, records.size());
    out.meanRetries = static_cast<double>(total_retries) /
                      static_cast<double>(records.size());
    out.failureAffectedFraction = rate(affected, records.size());
    out.failureViolationRate = rate(affected_viol, records.size());
    out.prefixHitFraction = rate(prefix_hits, records.size());
    out.prefixTokensSavedFraction =
        prompt_tokens == 0 ? 0.0
                           : static_cast<double>(prefix_tokens) /
                                 static_cast<double>(prompt_tokens);
    out.meanCachedPrefixTokens = static_cast<double>(prefix_tokens) /
                                 static_cast<double>(records.size());

    static constexpr double kHeadline[] = {50.0, 95.0, 99.0};
    double q[3];
    selectPercentiles(latencies, kHeadline, q);
    out.p50Latency = q[0];
    out.p95Latency = q[1];
    out.p99Latency = q[2];

    // Tiers no record reached are left out; the rest follow in id
    // order.
    for (std::size_t tier_id = 0; tier_id < per_tier.size(); ++tier_id) {
        TierAcc &acc = per_tier[tier_id];
        if (acc.count == 0)
            continue;
        TierSummary ts;
        ts.tierId = static_cast<int>(tier_id);
        ts.count = acc.count;
        selectPercentiles(acc.ttft, kHeadline, q);
        ts.p50Ttft = q[0];
        ts.p95Ttft = q[1];
        ts.p99Ttft = q[2];
        selectPercentiles(acc.ttlt, kHeadline, q);
        ts.p50Ttlt = q[0];
        ts.p95Ttlt = q[1];
        ts.p99Ttlt = q[2];
        ts.violationRate = rate(acc.viol, acc.count);
        ts.tbtMissRate = rate(acc.tbt_miss, acc.count);
        out.tiers.push_back(ts);
    }

    if constexpr (audit::cheapChecks()) {
        // Accounting sanity: the short/long and per-tier partitions
        // must cover every record exactly once, and every rate is a
        // probability.
        QOSERVE_ASSERT(shorts + longs == records.size(),
                       "short/long split lost records");
        std::size_t tier_total = 0;
        for (const auto &ts : out.tiers)
            tier_total += ts.count;
        QOSERVE_ASSERT(tier_total == records.size(),
                       "per-tier counts lost records");
        for (double r : {out.violationRate, out.violationRateWithTbt,
                         out.importantViolationRate,
                         out.shortViolationRate, out.longViolationRate,
                         out.relegatedFraction, out.rejectedFraction,
                         out.retryExhaustedFraction, out.availability,
                         out.failureAffectedFraction,
                         out.failureViolationRate, out.prefixHitFraction,
                         out.prefixTokensSavedFraction}) {
            QOSERVE_ASSERT(r >= 0.0 && r <= 1.0,
                           "rate outside [0, 1]: ", r);
        }
        QOSERVE_ASSERT(out.violationRateWithTbt >=
                           out.violationRate,
                       "TBT-inclusive violation rate below the "
                       "TTFT/TTLT-only rate");
        QOSERVE_ASSERT(out.failureViolationRate <= out.violationRate,
                       "failure-attributed violations exceed total "
                       "violations");
        QOSERVE_ASSERT(out.meanRetries >= 0.0,
                       "negative mean retry count");
        QOSERVE_ASSERT(out.meanCachedPrefixTokens >= 0.0,
                       "negative mean cached-prefix tokens");
    }
    return out;
}

std::vector<RollingPoint>
rollingLatency(const MetricsCollector &collector, SimDuration window,
               double pct, int tier_id, bool important_only)
{
    QOSERVE_ASSERT(window > 0.0, "window must be positive");
    const auto &records = collector.records();
    const auto &tiers = collector.tiers();

    // One (window, latency) pair per selected record, sorted once:
    // each window's latencies then sit together in ascending order.
    // Keyed pairs rather than a vector indexed by window, because the
    // number of windows is bounded by the arrival span over @p window,
    // not by the record count.
    std::vector<std::pair<std::int64_t, double>> keyed;
    keyed.reserve(records.size());
    for (const auto &r : records) {
        if (tier_id >= 0 && r.spec.tierId != tier_id)
            continue;
        if (important_only && !r.spec.important)
            continue;
        auto bucket =
            static_cast<std::int64_t>(
                std::floor(r.spec.arrival.seconds() / window));
        keyed.emplace_back(bucket,
                           headlineLatency(r, tiers[r.spec.tierId]));
    }
    std::sort(keyed.begin(), keyed.end());

    std::vector<RollingPoint> out;
    std::vector<double> values;
    for (auto it = keyed.begin(); it != keyed.end();) {
        const std::int64_t bucket = it->first;
        values.clear();
        for (; it != keyed.end() && it->first == bucket; ++it)
            values.push_back(it->second);
        RollingPoint p;
        p.windowStart = SimTime{static_cast<double>(bucket) * window};
        p.count = values.size();
        p.value = percentileSorted(values, pct);
        out.push_back(p);
    }
    return out;
}

} // namespace qoserve
