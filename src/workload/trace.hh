/**
 * @file
 * Request traces and trace synthesis.
 *
 * A trace is the complete, reproducible input to one experiment: a
 * time-ordered list of request specs (arrival time, prompt/decode
 * token counts, QoS tier, priority hint) plus per-application decode
 * statistics that stand in for the "running history of token
 * generation patterns per application" the paper's scheduler keeps
 * (§3.6), used to estimate decode time in hybrid prioritization.
 */

#ifndef QOSERVE_WORKLOAD_TRACE_HH
#define QOSERVE_WORKLOAD_TRACE_HH

#include <cstdint>
#include <vector>

#include "workload/arrival.hh"
#include "workload/dataset.hh"
#include "workload/qos.hh"

namespace qoserve {

/**
 * One content-addressed span of a prompt.
 *
 * Two requests share KV-cacheable prefix content exactly as far as
 * their segment lists agree token-by-token: equal contentId means
 * equal token content for the whole segment (a system prompt drawn
 * from a pool, or a previous conversation turn). Requests without
 * segments are wholly unique.
 */
struct PromptSegment
{
    /** Opaque content identity (equal id == equal tokens). */
    std::uint64_t contentId = 0;

    /** Segment length in tokens; positive. */
    int tokens = 0;
};

/**
 * Immutable description of a single request.
 */
struct RequestSpec
{
    /** Unique id, dense from 0 in arrival order. */
    std::uint64_t id = 0;

    /** Arrival timestamp. */
    SimTime arrival;

    /** Prompt (prefill) length in tokens. */
    int promptTokens = 0;

    /** Number of output tokens the request will generate. */
    int decodeTokens = 0;

    /** QoS tier index into the trace's TierTable. */
    int tierId = 0;

    /** Application hint: false marks a relegation-first request
     *  (e.g. free tier), true a high-priority one (§3.4). */
    bool important = true;

    /** Application id for decode-length history lookups. */
    int appId = 0;

    /** Prompt content layout for prefix caching; empty means the
     *  whole prompt is unique content. When non-empty the segment
     *  token counts sum to promptTokens. */
    std::vector<PromptSegment> promptSegments;
};

/**
 * Historic decode-length statistics of one application.
 */
struct AppStats
{
    /** Mean observed decode length, tokens. */
    double meanDecode = 0.0;

    /** Standard deviation of observed decode length, tokens. */
    double stddevDecode = 0.0;

    /**
     * Conservative decode-length estimate: mean plus two standard
     * deviations (§3.4, "over-approximate it by two standard
     * deviations").
     */
    double
    conservativeDecodeTokens() const
    {
        return meanDecode + 2.0 * stddevDecode;
    }
};

/**
 * A complete experiment input.
 */
struct Trace
{
    /** Tier definitions the tierId fields refer to. */
    TierTable tiers;

    /** Requests in non-decreasing arrival order. */
    std::vector<RequestSpec> requests;

    /** Per-application stats, indexed by RequestSpec::appId. */
    std::vector<AppStats> appStats;

    /** Average request rate of the generating process. */
    double averageQps = 0.0;
};

/**
 * Shared-prefix synthesis knobs (see TraceBuilder::sharedPrefix).
 *
 * A share-ratio fraction of requests draw a shared prompt prefix:
 * either a fresh conversation opened on one of a pool of system
 * prompts, or a continuation of an earlier conversation whose prompt
 * re-sends the whole history (previous prompt + previous answer +
 * a new user turn). Everything is sampled from a dedicated split of
 * the trace seed, so traces stay replayable and requests outside the
 * shared fraction are untouched.
 */
struct SharedPrefixConfig
{
    /** Fraction of requests given a shared prefix, in [0, 1];
     *  0 disables synthesis entirely (and byte-identically). */
    double shareRatio = 0.0;

    /** Number of distinct system prompts in the pool. */
    int numPools = 8;

    /** System-prompt length range in tokens, inclusive: from
     *  kPoolTokensLo to poolTokensHi (at least kPoolTokensLo). */
    static constexpr int kPoolTokensLo = 128;
    // qoserve-lint: allow(unset-option) the golden artefacts pin 512
    int poolTokensHi = 1024;

    /** Of the shared requests, the fraction that continue an earlier
     *  conversation rather than opening a new one, in [0, 1]. */
    double multiTurnFrac = 0.5;

    bool enabled() const { return shareRatio > 0.0; }

    /** Fatal on out-of-range values (user configuration). */
    void validate() const;
};

/**
 * Builder that synthesises traces from a dataset model, a tier mix
 * and an arrival process.
 */
class TraceBuilder
{
  public:
    TraceBuilder();

    /** Set the token-length dataset (default: Az-Code). */
    TraceBuilder &dataset(Dataset d);

    /** Set the tier table (default: paperTierTable()). */
    TraceBuilder &tiers(TierTable t);

    /**
     * Set the tier mix as fractions per tier (default: equal split,
     * the paper's 33/33/33). Must match the tier table's size and
     * sum to ~1.
     */
    TraceBuilder &tierMix(std::vector<double> mix);

    /**
     * Fraction of requests in every tier tagged as NOT important
     * (default 0: all important). §4.3 uses 0.2.
     */
    TraceBuilder &lowPriorityFraction(double f);

    /** Root seed (default 42). */
    TraceBuilder &seed(std::uint64_t s);

    /** Configure shared-prefix synthesis (default: disabled). */
    TraceBuilder &sharedPrefix(SharedPrefixConfig cfg);

    /** Generate requests until @p duration of arrivals. */
    Trace build(const ArrivalProcess &arrivals,
                SimDuration duration) const;

    /** Generate exactly @p count requests. */
    Trace buildCount(const ArrivalProcess &arrivals,
                     std::size_t count) const;

  private:
    Trace generate(const ArrivalProcess &arrivals, SimDuration duration,
                   std::size_t max_count) const;

    Dataset dataset_;
    TierTable tiers_;
    std::vector<double> tierMix_;
    double lowPriorityFraction_ = 0.0;
    std::uint64_t seed_ = 42;
    SharedPrefixConfig sharedPrefix_;
};

/** Compute per-app decode statistics over a request list. */
std::vector<AppStats> computeAppStats(
    const std::vector<RequestSpec> &requests);

} // namespace qoserve

#endif // QOSERVE_WORKLOAD_TRACE_HH
