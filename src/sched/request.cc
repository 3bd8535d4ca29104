/**
 * @file
 * Request state-machine implementation.
 */

#include "sched/request.hh"

#include <utility>

#include "simcore/logging.hh"

namespace qoserve {

Request::Request(RequestSpec spec, QosTier tier, AppStats app_stats)
    : prefillTarget_(spec.promptTokens), spec_(std::move(spec)),
      tier_(std::move(tier)), appStats_(app_stats)
{
    QOSERVE_ASSERT(spec_.promptTokens > 0, "request needs a prompt");
    QOSERVE_ASSERT(spec_.decodeTokens >= 1,
                   "request must emit at least one token");
    record_.spec = spec_;
}

void
Request::setRelegated(bool r)
{
    relegated_ = r;
    if (r)
        record_.wasRelegated = true;
}

double
Request::conservativeDecodeTokens() const
{
    double est = appStats_.conservativeDecodeTokens();
    // With no history at all, fall back to the request's own length
    // (an oracle, but only exercised in synthetic unit tests).
    return est > 0.0 ? est : static_cast<double>(spec_.decodeTokens);
}

SimTime
Request::firstTokenDeadline() const
{
    return tier_.firstTokenDeadline(spec_.arrival);
}

SimTime
Request::nextTokenDeadline() const
{
    if (!tier_.interactive)
        return kTimeNever;
    if (phase_ == RequestPhase::Finished)
        return kTimeNever;
    return tier_.tokenDeadline(spec_.arrival, decodeDone_ + 1);
}

SimTime
Request::completionDeadline() const
{
    return tier_.completionDeadline(spec_.arrival,
                                    TokenCount{spec_.decodeTokens});
}

SimTime
Request::urgencyDeadline() const
{
    return tier_.interactive ? spec_.arrival + tier_.ttftSlo
                             : spec_.arrival + tier_.ttltSlo;
}

void
Request::attachCachedPrefix(TokenCount cached)
{
    int tokens = static_cast<int>(cached.value());
    QOSERVE_ASSERT(phase_ == RequestPhase::WaitingPrefill &&
                       prefillDone_ == 0,
                   "cached-prefix attach on a request with progress");
    QOSERVE_ASSERT(tokens > 0 && tokens < prefillTarget_,
                   "cached prefix must leave prefill work: ", tokens,
                   " of ", prefillTarget_);
    prefillDone_ = tokens;
    record_.cachedPrefixTokens = tokens;
}

void
Request::applyPrefill(TokenCount chunk, SimTime now)
{
    int tokens = static_cast<int>(chunk.value());
    QOSERVE_ASSERT(phase_ == RequestPhase::WaitingPrefill ||
                       phase_ == RequestPhase::Prefilling,
                   "prefill progress in wrong phase");
    QOSERVE_ASSERT(tokens > 0 && tokens <= prefillRemaining(),
                   "invalid prefill chunk: ", tokens, " of ",
                   prefillRemaining(), " remaining");

    prefillDone_ += tokens;
    phase_ = RequestPhase::Prefilling;

    if (prefillDone_ == prefillTarget_) {
        // The iteration that processes the final chunk emits the
        // next output token: the first one for a fresh request, or
        // token resumedTokens_+1 when resuming after a failure (the
        // first token was already delivered in a previous life).
        // Before the first token lastTokenTime_ is kTimeNever, so the
        // shared step records no gap for it.
        if (decodeDone_ == 0)
            record_.firstTokenTime = now;
        DecodeProgress progress = decodeProgress();
        progress.emitToken(now);
        storeDecodeProgress(progress);
    }
}

void
Request::applyDecodeToken(SimTime now)
{
    QOSERVE_ASSERT(phase_ == RequestPhase::Decoding,
                   "decode token in wrong phase");
    DecodeProgress progress = decodeProgress();
    progress.emitToken(now);
    storeDecodeProgress(progress);
}

DecodeProgress
Request::decodeProgress() const
{
    DecodeProgress p;
    if (tier_.interactive) {
        p.deadlineBase = spec_.arrival + tier_.ttftSlo;
        p.tbtSlo = tier_.tbtSlo;
    }
    p.lastTokenTime = lastTokenTime_;
    p.maxTbt = record_.maxTbt;
    p.done = decodeDone_;
    p.target = spec_.decodeTokens;
    p.tbtMisses = record_.tbtDeadlineMisses;
    return p;
}

void
Request::storeDecodeProgress(const DecodeProgress &progress)
{
    decodeDone_ = progress.done;
    lastTokenTime_ = progress.lastTokenTime;
    record_.maxTbt = progress.maxTbt;
    record_.tbtDeadlineMisses = progress.tbtMisses;
    if (progress.finished()) {
        phase_ = RequestPhase::Finished;
        record_.finishTime = progress.lastTokenTime;
    } else {
        phase_ = RequestPhase::Decoding;
    }
}

void
Request::primeForDecode(SimTime first_token_time)
{
    QOSERVE_ASSERT(phase_ == RequestPhase::WaitingPrefill &&
                       prefillDone_ == 0 && decodeDone_ == 0,
                   "primeForDecode on a request with progress");
    QOSERVE_ASSERT(spec_.decodeTokens > 1,
                   "primeForDecode on a single-token request");
    prefillDone_ = spec_.promptTokens;
    decodeDone_ = 1;
    record_.firstTokenTime = first_token_time;
    lastTokenTime_ = first_token_time;
    phase_ = RequestPhase::Decoding;
}

void
Request::resetAfterKvPreemption()
{
    QOSERVE_ASSERT(phase_ != RequestPhase::Finished,
                   "cannot preempt a finished request");
    ++record_.kvPreemptions;
    prefillDone_ = 0;
    // Preemption dropped the attached blocks with the rest of the KV;
    // the recompute starts from scratch, so the credit is void.
    record_.cachedPrefixTokens = 0;
    // A failure-resumed request keeps its delivered tokens: recompute
    // restarts at the same resume point, not from scratch. Tokens past
    // that point are emitted, and deadline-checked, again, so their
    // misses must not count twice.
    decodeDone_ = resumedTokens_;
    record_.tbtDeadlineMisses = resumedTbtMisses_;
    phase_ = RequestPhase::WaitingPrefill;
    if (resumedTokens_ == 0) {
        lastTokenTime_ = kTimeNever;
        record_.firstTokenTime = kTimeNever;
    }
}

RequestFailureSnapshot
Request::failureSnapshot() const
{
    QOSERVE_ASSERT(phase_ != RequestPhase::Finished,
                   "snapshot of a finished request");
    RequestFailureSnapshot snap;
    snap.spec = spec_;
    snap.decodeDone = decodeDone_;
    snap.firstTokenTime = record_.firstTokenTime;
    snap.lastTokenTime = lastTokenTime_;
    snap.maxTbt = record_.maxTbt;
    snap.tbtDeadlineMisses = record_.tbtDeadlineMisses;
    snap.wasRelegated = record_.wasRelegated;
    snap.kvPreemptions = record_.kvPreemptions;
    snap.retries = record_.retries;
    return snap;
}

void
Request::restoreForRetry(const RequestFailureSnapshot &snap)
{
    QOSERVE_ASSERT(phase_ == RequestPhase::WaitingPrefill &&
                       prefillDone_ == 0 && decodeDone_ == 0,
                   "restoreForRetry on a request with progress");
    QOSERVE_ASSERT(snap.spec.id == spec_.id,
                   "snapshot restored into the wrong request");
    QOSERVE_ASSERT(snap.decodeDone >= 0 &&
                       snap.decodeDone < spec_.decodeTokens,
                   "snapshot decode progress out of range");
    resumedTokens_ = snap.decodeDone;
    resumedTbtMisses_ = snap.tbtDeadlineMisses;
    decodeDone_ = snap.decodeDone;
    prefillTarget_ = spec_.promptTokens + snap.decodeDone;
    lastTokenTime_ = snap.lastTokenTime;
    record_.firstTokenTime = snap.firstTokenTime;
    record_.maxTbt = snap.maxTbt;
    record_.tbtDeadlineMisses = snap.tbtDeadlineMisses;
    record_.wasRelegated = snap.wasRelegated;
    record_.kvPreemptions = snap.kvPreemptions;
    record_.retries = snap.retries;
}

} // namespace qoserve
