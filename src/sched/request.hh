/**
 * @file
 * Runtime state of one inference request inside a replica.
 *
 * Wraps an immutable RequestSpec with scheduling progress (prefill /
 * decode counters), QoS deadline arithmetic (Eqs. 1-3), relegation
 * state, and the completion record handed to the metrics layer.
 */

#ifndef QOSERVE_SCHED_REQUEST_HH
#define QOSERVE_SCHED_REQUEST_HH

#include <cstdint>
#include <utility>

#include "core/units.hh"
#include "workload/qos.hh"
#include "workload/trace.hh"

namespace qoserve {

/** Lifecycle phase of a request. */
enum class RequestPhase : std::uint8_t
{
    WaitingPrefill, ///< In the prefill queue, no tokens processed yet.
    Prefilling,     ///< Some prefill chunks processed.
    Decoding,       ///< Prefill complete; generating output tokens.
    Finished,       ///< All output tokens emitted.
};

/**
 * Final measurements of a completed (or abandoned) request.
 */
struct RequestRecord
{
    RequestSpec spec;

    /** Time the first output token was emitted. */
    SimTime firstTokenTime = kTimeNever;

    /** Time the final output token was emitted. */
    SimTime finishTime = kTimeNever;

    /** Largest observed gap between consecutive output tokens. */
    SimDuration maxTbt = 0.0;

    /** Output tokens emitted after their Eq. 2 deadline. */
    int tbtDeadlineMisses = 0;

    /** True if the request was ever relegated. */
    bool wasRelegated = false;

    /** True if admission control rejected the request outright (it
     *  never executed; latencies are infinite). */
    bool rejected = false;

    /** Times the request lost already-computed KV to preemption. */
    int kvPreemptions = 0;

    /** Times the request was re-dispatched after a replica failure. */
    int retries = 0;

    /** Prompt tokens served from the shared-prefix cache instead of
     *  being prefilled (0 when the cache is off or missed). */
    int cachedPrefixTokens = 0;

    /** True if the request was abandoned after exhausting its retry
     *  budget (it never finished; finishTime stays infinite). */
    bool retryExhausted = false;

    /** TTFT, or +inf if no token was produced. */
    SimDuration ttft() const { return firstTokenTime - spec.arrival; }

    /** TTLT, or +inf if never finished. */
    SimDuration ttlt() const { return finishTime - spec.arrival; }
};

/**
 * Everything the cluster must carry to re-dispatch a request after
 * its replica failed. The KV cache died with the replica, so the
 * snapshot holds only externally visible progress: tokens already
 * delivered to the client and the record fields accumulated so far.
 * Prefill always restarts from chunk 0 on the new replica; a request
 * that was decoding resumes emission from decodeDone (its context —
 * prompt plus emitted tokens — is recomputed as prefill first).
 */
struct RequestFailureSnapshot
{
    RequestSpec spec;

    /** Output tokens the client had received before the crash. */
    int decodeDone = 0;

    /** Record fields that survive the crash. */
    SimTime firstTokenTime = kTimeNever;
    SimTime lastTokenTime = kTimeNever;
    SimDuration maxTbt = 0.0;
    int tbtDeadlineMisses = 0;
    bool wasRelegated = false;
    int kvPreemptions = 0;

    /** Re-dispatch attempts consumed so far. */
    int retries = 0;
};

/**
 * A request being served by one replica.
 */
class Request
{
  public:
    /**
     * @param spec Immutable description.
     * @param tier QoS tier the spec's tierId refers to (copied).
     * @param app_stats Historic decode stats for the spec's app
     *        (copied; pass {} when no history exists).
     */
    Request(RequestSpec spec, QosTier tier, AppStats app_stats);

    /** Unique id (from the spec). */
    std::uint64_t id() const { return spec_.id; }

    /** Immutable description. */
    const RequestSpec &spec() const { return spec_; }

    /** QoS tier. */
    const QosTier &tier() const { return tier_; }

    /** Lifecycle phase. */
    RequestPhase phase() const { return phase_; }

    /** Prompt tokens whose KV is already computed. */
    int prefillDone() const { return prefillDone_; }

    /**
     * Prefill tokens still to compute. For a request resumed after a
     * replica failure this covers the prompt plus the previously
     * emitted tokens whose KV must be recomputed.
     */
    int prefillRemaining() const { return prefillTarget_ - prefillDone_; }

    /** Output tokens emitted so far. */
    int decodeDone() const { return decodeDone_; }

    /** Output tokens still to generate. */
    int decodeRemaining() const { return spec_.decodeTokens - decodeDone_; }

    /** Total KV context currently attributable to this request. */
    std::int64_t
    contextLength() const
    {
        // Tokens emitted before a crash are recomputed as prefill on
        // the new replica, so until then they contribute no KV here.
        return prefillDone_ + decodeDone_ - resumedTokens_;
    }

    /** True once the request is in the relegated queue (§3.4). */
    bool relegated() const { return relegated_; }

    /** Mark or clear relegation. */
    void setRelegated(bool r);

    /**
     * Historic conservative decode-token estimate for priority
     * computation (mean + 2 sigma of the app's decode lengths).
     */
    double conservativeDecodeTokens() const;

    /** Deadline of the first output token (Eq. 1 / Eq. 3). */
    SimTime firstTokenDeadline() const;

    /**
     * Deadline of the *next* output token to be emitted (Eq. 2).
     * kTimeNever for non-interactive tiers.
     */
    SimTime nextTokenDeadline() const;

    /** Completion deadline (Eq. 3; final-token deadline if interactive). */
    SimTime completionDeadline() const;

    /**
     * The deadline hybrid prioritization interpolates from: TTFT
     * deadline for interactive requests, TTLT for non-interactive
     * (Eqs. 4-5 use arrival + SLO).
     */
    SimTime urgencyDeadline() const;

    /**
     * Credit @p tokens of prompt KV attached from the shared-prefix
     * cache: prefill starts @p tokens in, so the scheduler's chunk
     * solver and predictor see only the uncached suffix. Only valid
     * before any progress was recorded, and must leave at least one
     * real prefill token (the cache caps its attach accordingly).
     */
    void attachCachedPrefix(TokenCount tokens);

    /**
     * Record @p tokens of prefill progress at time @p now.
     *
     * Transitions WaitingPrefill -> Prefilling, and on the final
     * chunk -> Decoding with the first output token emitted (chunked
     * prefill produces the first token in the same iteration the
     * last chunk runs).
     */
    void applyPrefill(TokenCount tokens, SimTime now);

    /**
     * Record one decode token emitted at time @p now.
     *
     * Transitions to Finished after the last token.
     */
    void applyDecodeToken(SimTime now);

    /**
     * Initialise this request as a decode-stage continuation in a
     * disaggregated deployment: the prefill node already computed
     * the full prompt KV and emitted the first token at
     * @p first_token_time; this instance resumes from token 2.
     * Only valid before any progress was recorded. Transitions
     * straight to Decoding (or Finished for single-token requests).
     */
    void primeForDecode(SimTime first_token_time);

    /**
     * Reset all prefill/decode progress after the KV cache was
     * preempted (vLLM-style recompute). The request returns to
     * WaitingPrefill; metrics of emitted tokens are preserved in the
     * record only if it had none (a decoding request cannot be
     * preempted by policy, so this applies to prefill-phase requests
     * whose first token has not been produced).
     */
    void resetAfterKvPreemption();

    /**
     * Capture the state the cluster needs to re-dispatch this request
     * after its replica failed. Valid in any phase but Finished.
     */
    RequestFailureSnapshot failureSnapshot() const;

    /**
     * Restore progress from a failure snapshot on a fresh replica.
     * Only valid before any progress was recorded. The request stays
     * in WaitingPrefill; its prefill target grows by the snapshot's
     * emitted tokens (their KV must be recomputed) and decode resumes
     * from the emitted-token count once prefill completes.
     */
    void restoreForRetry(const RequestFailureSnapshot &snap);

    /** Cached priority key used by schedulers' ordered queues. */
    double cachedPriority = 0.0;

    /** This request's slot in its replica's BlockManager; invalid
     *  while the request holds no KV record there. */
    KvSlot kvSlot() const { return kvSlot_; }

    /** Record the slot the BlockManager opened for this request (or
     *  KvSlot{} once it is released). */
    void setKvSlot(KvSlot slot) { kvSlot_ = slot; }

    /** Final record; meaningful once phase() == Finished. */
    const RequestRecord &record() const { return record_; }

    /** Move the final record out of a finished request that is about
     *  to be destroyed; record() is unspecified afterwards. */
    RequestRecord takeRecord() { return std::move(record_); }

  private:
    /** True if token @p token_index would be late when emitted now. */
    bool nextTokenCheckMissed(SimTime now, int token_index) const;

    // Progress state first: together with the public cachedPriority
    // above, the phase, relegation flag, KV slot and progress
    // counters sit in the object's leading bytes. Per-iteration work
    // is not confined to them: for every decode token,
    // applyDecodeToken() reads spec_.decodeTokens, spec_.arrival and
    // tier_ and writes record_.maxTbt and record_.tbtDeadlineMisses,
    // and nextTokenDeadline() (the dynamic chunk's slack scan) reads
    // tier_ and spec_.arrival. Copying those fields up here measured
    // within run-to-run noise on the decode-heavy ShareGPT workload,
    // so they stay in the payload below.
    RequestPhase phase_ = RequestPhase::WaitingPrefill;
    bool relegated_ = false;
    KvSlot kvSlot_;
    int prefillDone_ = 0;
    int decodeDone_ = 0;

    /** Prefill tokens to compute before decode (resumes include the
     *  previously emitted tokens). */
    int prefillTarget_ = 0;

    /** Tokens emitted in a previous life whose KV is rebuilt via
     *  prefill (0 unless restored from a failure snapshot). */
    int resumedTokens_ = 0;

    /** TBT deadline misses counted up to resumedTokens_: what a KV
     *  preemption rewinds the record's count to. */
    int resumedTbtMisses_ = 0;

    SimTime lastTokenTime_ = kTimeNever;

    // Payload: the spec, tier and app stats are fixed after
    // admission; the record fills in as the request progresses.
    RequestSpec spec_;
    QosTier tier_;
    AppStats appStats_;
    RequestRecord record_;
};

} // namespace qoserve

#endif // QOSERVE_SCHED_REQUEST_HH
