/**
 * @file
 * Trace synthesis implementation.
 */

#include "workload/trace.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "simcore/logging.hh"

namespace qoserve {

namespace {

// Content-id derivation for synthesised shared prefixes. Ids only
// need to be equal for equal content and distinct otherwise; the
// SplitMix64 finalizer gives well-spread deterministic values.
constexpr std::uint64_t kPoolSalt = 0xA5A5A5A5DEADBEEFull;
constexpr std::uint64_t kTurnSalt = 0xC3C3C3C3CAFEF00Dull;
constexpr std::uint64_t kAnswerSalt = 0x96969696FEEDFACEull;

/** Requests re-sending conversation history stop growing past this
 *  prompt length and open a fresh conversation instead. */
constexpr std::int64_t kMaxSharedPromptTokens = 16384;

/** Live conversations eligible for continuation (oldest recycled). */
constexpr std::size_t kConversationRing = 1024;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
poolContent(int pool)
{
    return mix64(kPoolSalt ^ static_cast<std::uint64_t>(pool));
}

std::uint64_t
turnContent(std::uint64_t conv, int turn)
{
    return mix64(mix64(kTurnSalt ^ conv) ^
                 static_cast<std::uint64_t>(turn));
}

std::uint64_t
answerContent(std::uint64_t conv, int turn)
{
    return mix64(mix64(kAnswerSalt ^ conv) ^
                 static_cast<std::uint64_t>(turn));
}

} // namespace

void
SharedPrefixConfig::validate() const
{
    if (!(shareRatio >= 0.0 && shareRatio <= 1.0))
        QOSERVE_FATAL("share ratio must be in [0, 1], got ", shareRatio);
    if (numPools < 1)
        QOSERVE_FATAL("prefix pool count must be positive, got ",
                      numPools);
    static_assert(kPoolTokensLo >= 1, "empty system prompts");
    if (poolTokensHi < kPoolTokensLo) {
        QOSERVE_FATAL("bad pool token range [", kPoolTokensLo, ", ",
                      poolTokensHi, "]");
    }
    if (!(multiTurnFrac >= 0.0 && multiTurnFrac <= 1.0)) {
        QOSERVE_FATAL("multi-turn fraction must be in [0, 1], got ",
                      multiTurnFrac);
    }
}

TraceBuilder::TraceBuilder()
    : dataset_(azureCode()), tiers_(paperTierTable())
{
}

TraceBuilder &
TraceBuilder::dataset(Dataset d)
{
    dataset_ = std::move(d);
    return *this;
}

TraceBuilder &
TraceBuilder::tiers(TierTable t)
{
    QOSERVE_ASSERT(!t.empty(), "tier table must not be empty");
    tiers_ = std::move(t);
    return *this;
}

TraceBuilder &
TraceBuilder::tierMix(std::vector<double> mix)
{
    tierMix_ = std::move(mix);
    return *this;
}

TraceBuilder &
TraceBuilder::lowPriorityFraction(double f)
{
    QOSERVE_ASSERT(f >= 0.0 && f <= 1.0, "fraction out of range");
    lowPriorityFraction_ = f;
    return *this;
}

TraceBuilder &
TraceBuilder::seed(std::uint64_t s)
{
    seed_ = s;
    return *this;
}

TraceBuilder &
TraceBuilder::sharedPrefix(SharedPrefixConfig cfg)
{
    sharedPrefix_ = cfg;
    return *this;
}

Trace
TraceBuilder::build(const ArrivalProcess &arrivals,
                    SimDuration duration) const
{
    return generate(arrivals, duration,
                    std::numeric_limits<std::size_t>::max());
}

Trace
TraceBuilder::buildCount(const ArrivalProcess &arrivals,
                         std::size_t count) const
{
    return generate(arrivals, kDurationNever, count);
}

Trace
TraceBuilder::generate(const ArrivalProcess &arrivals,
                       SimDuration duration, std::size_t max_count) const
{
    std::vector<double> mix = tierMix_;
    if (mix.empty())
        mix.assign(tiers_.size(), 1.0 / tiers_.size());
    if (mix.size() != tiers_.size())
        QOSERVE_FATAL("tier mix size (", mix.size(),
                      ") != tier count (", tiers_.size(), ")");
    for (std::size_t i = 0; i < mix.size(); ++i) {
        if (!(mix[i] >= 0.0))
            QOSERVE_FATAL("tier mix entries must be non-negative, got ",
                          mix[i], " for tier ", i);
    }
    double total = std::accumulate(mix.begin(), mix.end(), 0.0);
    if (std::abs(total - 1.0) > 1e-6)
        QOSERVE_FATAL("tier mix must sum to 1, got ", total);

    Rng root(seed_);
    Rng arrival_rng = root.split("arrivals");
    Rng length_rng = root.split("lengths");
    Rng tier_rng = root.split("tiers");
    Rng prio_rng = root.split("priority");

    // Shared-prefix synthesis draws from its own split of the root
    // seed, so enabling it never perturbs the base streams — and at
    // share ratio zero the generated trace is unchanged.
    struct Conversation
    {
        std::vector<PromptSegment> segments;
        std::uint64_t answerContent = 0;
        int answerTokens = 0;
        std::uint64_t convId = 0;
        int turn = 0;
    };
    const SharedPrefixConfig &sp = sharedPrefix_;
    Rng prefix_rng = root.split("prefix");
    std::vector<Conversation> conversations;
    std::vector<int> pool_tokens;
    std::uint64_t next_conv = 0;
    if (sp.enabled()) {
        sp.validate();
        pool_tokens.reserve(static_cast<std::size_t>(sp.numPools));
        for (int p = 0; p < sp.numPools; ++p) {
            pool_tokens.push_back(static_cast<int>(
                prefix_rng.uniformInt(SharedPrefixConfig::kPoolTokensLo,
                                      sp.poolTokensHi)));
        }
    }

    Trace trace;
    trace.tiers = tiers_;
    trace.averageQps = arrivals.averageQps();

    SimTime t;
    while (trace.requests.size() < max_count) {
        t = arrivals.nextArrival(t, arrival_rng);
        if (t > SimTime{duration})
            break;

        RequestSpec spec;
        spec.id = trace.requests.size();
        spec.arrival = t;
        spec.promptTokens = dataset_.prompt.sample(length_rng);
        spec.decodeTokens = dataset_.decode.sample(length_rng);

        double u = tier_rng.uniform();
        double acc = 0.0;
        spec.tierId = static_cast<int>(tiers_.size()) - 1;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            acc += mix[i];
            if (u < acc) {
                spec.tierId = static_cast<int>(i);
                break;
            }
        }
        // One application per tier: the paper assigns each third of
        // the dataset to a distinct application with its own SLO.
        spec.appId = spec.tierId;
        spec.important = !prio_rng.bernoulli(lowPriorityFraction_);

        if (sp.enabled() && prefix_rng.uniform() < sp.shareRatio) {
            // The sampled prompt length becomes the new user turn;
            // the shared prefix (system prompt or conversation
            // history) is prepended on top of it.
            bool continued = false;
            if (!conversations.empty() &&
                prefix_rng.bernoulli(sp.multiTurnFrac)) {
                auto idx = static_cast<std::size_t>(prefix_rng.uniformInt(
                    0, static_cast<std::int64_t>(conversations.size()) - 1));
                Conversation &c = conversations[idx];
                std::int64_t history = c.answerTokens;
                for (const PromptSegment &s : c.segments)
                    history += s.tokens;
                if (history + spec.promptTokens <= kMaxSharedPromptTokens) {
                    c.segments.push_back(
                        {c.answerContent, c.answerTokens});
                    ++c.turn;
                    c.segments.push_back(
                        {turnContent(c.convId, c.turn), spec.promptTokens});
                    spec.promptSegments = c.segments;
                    spec.promptTokens =
                        static_cast<int>(history + spec.promptTokens);
                    c.answerContent = answerContent(c.convId, c.turn);
                    c.answerTokens = spec.decodeTokens;
                    continued = true;
                }
            }
            if (!continued) {
                // Fresh conversation opened on a pooled system prompt
                // (also the fallback when a continuation would exceed
                // the prompt-length cap).
                auto p = static_cast<std::size_t>(
                    prefix_rng.uniformInt(0, sp.numPools - 1));
                std::uint64_t conv = next_conv++;
                Conversation c;
                c.convId = conv;
                c.segments.push_back(
                    {poolContent(static_cast<int>(p)), pool_tokens[p]});
                c.segments.push_back(
                    {turnContent(conv, 0), spec.promptTokens});
                c.answerContent = answerContent(conv, 0);
                c.answerTokens = spec.decodeTokens;
                spec.promptSegments = c.segments;
                spec.promptTokens += pool_tokens[p];
                if (conversations.size() < kConversationRing)
                    conversations.push_back(std::move(c));
                else
                    conversations[conv % kConversationRing] = std::move(c);
            }
        }

        trace.requests.push_back(spec);
    }

    trace.appStats = computeAppStats(trace.requests);
    return trace;
}

std::vector<AppStats>
computeAppStats(const std::vector<RequestSpec> &requests)
{
    int max_app = -1;
    for (const auto &r : requests)
        max_app = std::max(max_app, r.appId);

    std::vector<AppStats> stats(max_app + 1);
    std::vector<double> sum(max_app + 1, 0.0);
    std::vector<double> sumsq(max_app + 1, 0.0);
    std::vector<std::int64_t> count(max_app + 1, 0);

    for (const auto &r : requests) {
        sum[r.appId] += r.decodeTokens;
        sumsq[r.appId] +=
            static_cast<double>(r.decodeTokens) * r.decodeTokens;
        ++count[r.appId];
    }

    for (int a = 0; a <= max_app; ++a) {
        if (count[a] == 0)
            continue;
        double n = static_cast<double>(count[a]);
        double mean = sum[a] / n;
        double var = std::max(0.0, sumsq[a] / n - mean * mean);
        stats[a].meanDecode = mean;
        stats[a].stddevDecode = std::sqrt(var);
    }
    return stats;
}

} // namespace qoserve
