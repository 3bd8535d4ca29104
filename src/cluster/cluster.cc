/**
 * @file
 * Cluster simulation implementation.
 */

#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>

#include "simcore/logging.hh"

namespace qoserve {

SimDuration
RetryPolicy::backoffFor(int attempt) const
{
    SimDuration delay = initialBackoff;
    for (int i = 0; i < attempt && delay < maxBackoff; ++i)
        delay *= backoffMultiplier;
    return std::min(delay, maxBackoff);
}

ClusterSim::ClusterSim(Config cfg, Trace trace)
    : cfg_(cfg), trace_(std::move(trace)),
      tierRoute_(trace_.tiers.size(), 0), metrics_(trace_.tiers),
      admission_(cfg_.admission),
      perf_(cfg_.replica.hw, cfg_.replica.perfParams)
{
    if (cfg_.breaker.enabled() &&
        !(cfg_.breaker.cooldown > SimDuration{0.0})) {
        QOSERVE_FATAL("circuit-breaker cooldown must be positive, "
                      "got ",
                      cfg_.breaker.cooldown);
    }
    QOSERVE_ASSERT(!trace_.tiers.empty(), "trace has no tiers");
    if (audit::checksEnabled()) {
        // Builds with checks on audit themselves by default; a run
        // that survives to completion is then certified corruption
        // free. Release builds (level off) skip the hook entirely.
        ownedAuditor_ = std::make_unique<InvariantAuditor>();
        auditor_ = ownedAuditor_.get();
    }
}

void
ClusterSim::setAuditor(InvariantAuditor *auditor)
{
    auditor_ = auditor;
    for (auto &replica : replicas_)
        replica->attachAuditor(auditor_);
}

void
ClusterSim::setTraceSink(TraceSink *sink)
{
    traceScope_.sink = sink;
    traceScope_.clock = &eq_;
    traceScope_.replica = -1;
    admission_.setTrace(&traceScope_);
    for (std::size_t i = 0; i < replicas_.size(); ++i)
        replicas_[i]->setTraceSink(sink, ReplicaId{static_cast<int>(i)});
}

const char *
loadBalanceName(LoadBalancePolicy policy)
{
    switch (policy) {
      case LoadBalancePolicy::RoundRobin:
        return "round-robin";
      case LoadBalancePolicy::LeastLoaded:
        return "least-loaded";
      case LoadBalancePolicy::ShortestQueue:
        return "shortest-queue";
    }
    QOSERVE_PANIC("unknown load-balance policy");
}

int
ClusterSim::addReplicaGroup(int count, const SchedulerFactory &factory,
                            LoadBalancePolicy lb)
{
    QOSERVE_ASSERT(count > 0, "group needs at least one replica");
    Group group;
    group.lb = lb;
    for (int i = 0; i < count; ++i) {
        auto replica = std::make_unique<Replica>(
            eq_, cfg_.replica, factory, cfg_.predictor, trace_.tiers,
            trace_.appStats, [this](RequestRecord &&rec) {
                if (auditor_ != nullptr)
                    auditor_->checkRecord(rec, trace_.tiers);
                metrics_.record(std::move(rec));
            });
        replica->attachAuditor(auditor_);
        replica->setFailureHandler(
            [this](const RequestFailureSnapshot &snap) {
                requeue(snap);
            });
        if (traceScope_.sink != nullptr) {
            replica->setTraceSink(
                traceScope_.sink,
                ReplicaId{static_cast<int>(replicas_.size())});
        }
        group.replicaIdx.push_back(replicas_.size());
        replicas_.push_back(std::move(replica));
        breakers_.push_back(BreakerState{});
    }
    groups_.push_back(std::move(group));
    return static_cast<int>(groups_.size()) - 1;
}

void
ClusterSim::routeTier(int tier_id, int group_id)
{
    QOSERVE_ASSERT(tier_id >= 0 &&
                       tier_id < static_cast<int>(tierRoute_.size()),
                   "unknown tier");
    QOSERVE_ASSERT(group_id >= 0 &&
                       group_id < static_cast<int>(groups_.size()),
                   "unknown group");
    tierRoute_[tier_id] = group_id;
}

ReplicaHealth
ClusterSim::viewedHealth(std::size_t idx) const
{
    return viewStale(idx) ? views_[idx].health
                          : replicas_[idx]->health();
}

double
ClusterSim::viewedSlowdown(std::size_t idx) const
{
    return viewStale(idx) ? views_[idx].slowdown
                          : replicas_[idx]->slowdown();
}

std::size_t
ClusterSim::viewedLiveRequests(std::size_t idx) const
{
    return viewStale(idx) ? views_[idx].liveRequests
                          : replicas_[idx]->liveRequests();
}

std::int64_t
ClusterSim::viewedPendingPrefillTokens(std::size_t idx) const
{
    return viewStale(idx)
               ? views_[idx].pendingPrefillTokens
               : replicas_[idx]->scheduler().pendingPrefillTokens();
}

bool
ClusterSim::breakerOpen(std::size_t i) const
{
    return cfg_.breaker.enabled() && breakers_[i].open &&
           eq_.now() < breakers_[i].reopenAt;
}

std::size_t
ClusterSim::pickReplica(Group &group, const RequestSpec &spec) const
{
    // Health-aware routing skips down replicas and multiplies load
    // scores by the straggler slowdown. With every replica Up the
    // skip never triggers and the factor is exactly 1.0, so the
    // choice (including tie-breaks) matches blind routing bit for
    // bit — fault-free runs are unchanged. All reads go through the
    // viewed* accessors: under a control-plane partition they return
    // the stale snapshot taken when the replica was blinded, and on
    // an unpartitioned run they are pure pass-throughs. An open
    // circuit breaker removes its replica from the candidate set even
    // for a health-oblivious front door — that is the breaker's whole
    // point; once the cooldown elapses the replica re-enters and the
    // next dispatch is the half-open probe.
    const bool aware = cfg_.healthAwareRouting;
    auto usable = [&](std::size_t idx) {
        if (aware && viewedHealth(idx) == ReplicaHealth::Down)
            return false;
        return !breakerOpen(idx);
    };

    // Cache-affinity pre-pass: the replica already holding the
    // longest cached prefix of this prompt serves it cheapest. Only a
    // strictly positive match diverts the request — a universal miss
    // (in particular, every probe when the prefix cache is disabled)
    // leaves the policy below, including its round-robin cursor,
    // exactly as if this pass did not exist. A blinded replica's
    // cache cannot be probed across the partition, so it never wins
    // the pre-pass.
    if (cfg_.cacheAffinityRouting) {
        std::size_t best = kNoReplica;
        int best_tokens = 0;
        for (std::size_t idx : group.replicaIdx) {
            if (!usable(idx) || viewStale(idx))
                continue;
            int tokens = replicas_[idx]->probeCachedTokens(spec);
            if (tokens > best_tokens) {
                best = idx;
                best_tokens = tokens;
            }
        }
        if (best != kNoReplica)
            return best;
    }

    switch (group.lb) {
      case LoadBalancePolicy::RoundRobin: {
        const std::size_t n = group.replicaIdx.size();
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t slot = (group.nextRr + k) % n;
            std::size_t idx = group.replicaIdx[slot];
            if (usable(idx)) {
                group.nextRr = (slot + 1) % n;
                return idx;
            }
        }
        return kNoReplica;
      }
      case LoadBalancePolicy::LeastLoaded: {
        std::size_t best = kNoReplica;
        double best_score = 0.0;
        for (std::size_t idx : group.replicaIdx) {
            if (!usable(idx))
                continue;
            double score =
                static_cast<double>(viewedLiveRequests(idx)) *
                (aware ? viewedSlowdown(idx) : 1.0);
            if (best == kNoReplica || score < best_score) {
                best = idx;
                best_score = score;
            }
        }
        return best;
      }
      case LoadBalancePolicy::ShortestQueue: {
        std::size_t best = kNoReplica;
        double best_score = 0.0;
        for (std::size_t idx : group.replicaIdx) {
            if (!usable(idx))
                continue;
            double score =
                static_cast<double>(viewedPendingPrefillTokens(idx)) *
                (aware ? viewedSlowdown(idx) : 1.0);
            if (best == kNoReplica || score < best_score) {
                best = idx;
                best_score = score;
            }
        }
        return best;
      }
    }
    QOSERVE_PANIC("unknown load-balance policy");
}

void
ClusterSim::blindReplica(std::size_t i)
{
    QOSERVE_ASSERT(i < replicas_.size(), "blindReplica: bad index");
    if (views_.empty())
        views_.resize(replicas_.size());
    ReplicaView &view = views_[i];
    view.stale = true;
    view.health = replicas_[i]->health();
    view.slowdown = replicas_[i]->slowdown();
    view.liveRequests = replicas_[i]->liveRequests();
    view.pendingPrefillTokens =
        replicas_[i]->scheduler().pendingPrefillTokens();
}

void
ClusterSim::unblindReplica(std::size_t i)
{
    QOSERVE_ASSERT(i < replicas_.size(), "unblindReplica: bad index");
    if (!views_.empty())
        views_[i] = ReplicaView{};
}

std::size_t
ClusterSim::blindedReplicas() const
{
    std::size_t n = 0;
    for (const ReplicaView &view : views_)
        n += view.stale ? 1 : 0;
    return n;
}

void
ClusterSim::noteDispatchFailure(std::size_t idx)
{
    if (!cfg_.breaker.enabled())
        return;
    BreakerState &st = breakers_[idx];
    ++st.consecutiveFailures;
    // A failed half-open probe re-trips immediately; a closed breaker
    // trips once the consecutive-failure run reaches the threshold.
    if (st.open || st.consecutiveFailures >=
                       cfg_.breaker.failureThreshold) {
        st.open = true;
        st.reopenAt = eq_.now() + cfg_.breaker.cooldown;
        ++breakerTrips_;
        traceScope_.emitOn(ReplicaId{static_cast<int>(idx)},
                           TraceEventKind::BreakerOpen, kNoTraceRequest,
                           st.consecutiveFailures);
    }
}

void
ClusterSim::noteDispatchSuccess(std::size_t idx)
{
    if (!cfg_.breaker.enabled())
        return;
    BreakerState &st = breakers_[idx];
    st.consecutiveFailures = 0;
    if (st.open) {
        // The half-open probe landed on a live process: close.
        st.open = false;
        st.reopenAt = SimTime{};
        traceScope_.emitOn(ReplicaId{static_cast<int>(idx)},
                           TraceEventKind::BreakerClose,
                           kNoTraceRequest);
    }
}

void
ClusterSim::injectArrival(std::size_t index)
{
    const RequestSpec &spec = trace_.requests[index];
    traceScope_.emit(TraceEventKind::Arrival, spec.id);

    // Brownout gates run before routing: a shed tier never reaches
    // the load balancer, and a capped request is dispatched with a
    // reduced decode budget. With the controller off (all modes at
    // defaults) both tests are constant-false and the arrival passes
    // through by reference, untouched.
    if (modes_.shedTier >= 0 && spec.tierId == modes_.shedTier) {
        recordShed(spec);
    } else if (modes_.capTokens > 0 &&
               spec.decodeTokens > modes_.capTokens) {
        RequestSpec capped = spec;
        capped.decodeTokens = modes_.capTokens;
        ++brownoutCapped_;
        dispatchArrival(capped);
    } else {
        dispatchArrival(spec);
    }

    // Chain the next arrival instead of pre-scheduling the whole
    // trace, keeping the event heap small.
    std::size_t next = index + 1;
    if (next < trace_.requests.size()) {
        eq_.schedule(trace_.requests[next].arrival,
                     [this, next]() { injectArrival(next); });
    }
}

void
ClusterSim::dispatchArrival(const RequestSpec &spec)
{
    Group &group = groups_[tierRoute_[spec.tierId]];
    std::size_t replica_idx = pickReplica(group, spec);
    if (replica_idx == kNoReplica) {
        // No candidate at all — every replica is down (or
        // breaker-blocked). The request enters the retry path
        // (backoff + budget) instead of being dropped; admission
        // control only ever evaluates dispatches that reach a live
        // replica.
        RequestFailureSnapshot snap;
        snap.spec = spec;
        requeue(std::move(snap));
        return;
    }
    if (replicas_[replica_idx]->health() == ReplicaHealth::Down) {
        // A blind front door (partition-stale view, or health-unaware
        // routing) picked a dead box. The bounce feeds the breaker
        // and the request retries.
        noteDispatchFailure(replica_idx);
        RequestFailureSnapshot snap;
        snap.spec = spec;
        requeue(std::move(snap));
        return;
    }
    noteDispatchSuccess(replica_idx);
    const TokenCount backlog{
        replicas_[replica_idx]->scheduler().pendingPrefillTokens()};
    if (admission_.admit(spec, eq_.now(), backlog)) {
        traceScope_.emitOn(ReplicaId{static_cast<int>(replica_idx)},
                           TraceEventKind::Dispatch, spec.id);
        replicas_[replica_idx]->submit(spec);
    } else {
        // Rejected outright: record an un-served request (infinite
        // latencies, counted as a violation).
        RequestRecord rec;
        rec.spec = spec;
        rec.rejected = true;
        if (auditor_ != nullptr)
            auditor_->checkRecord(rec, trace_.tiers);
        metrics_.record(std::move(rec));
    }
}

void
ClusterSim::recordShed(const RequestSpec &spec)
{
    // A shed arrival terminates unserved, shaped like an admission
    // rejection (infinite latencies, zero retries) so the records CSV
    // schema is untouched; the BrownoutShed trace event is what
    // distinguishes it downstream.
    ++brownoutShed_;
    traceScope_.emit(TraceEventKind::BrownoutShed, spec.id);
    RequestRecord rec;
    rec.spec = spec;
    rec.rejected = true;
    if (auditor_ != nullptr)
        auditor_->checkRecord(rec, trace_.tiers);
    metrics_.record(std::move(rec));
}

void
ClusterSim::applyDegradedModes(const DegradedModes &modes)
{
    if (modes.bypassCache != modes_.bypassCache) {
        for (auto &replica : replicas_)
            replica->setPrefixBypass(modes.bypassCache);
    }
    modes_ = modes;
}

void
ClusterSim::requeue(RequestFailureSnapshot snap)
{
    if (snap.retries >= cfg_.retry.maxRetries) {
        recordExhausted(snap);
        return;
    }
    SimDuration delay = cfg_.retry.backoffFor(snap.retries);
    if (cfg_.deadlineCancel &&
        deadlineUnreachable(snap, eq_.now() + delay)) {
        recordCancelled(snap);
        return;
    }
    snap.retries += 1;
    ++redispatches_;
    traceScope_.emit(TraceEventKind::RetryQueued, snap.spec.id,
                     snap.retries);
    eq_.scheduleAfter(delay, [this, snap = std::move(snap)]() {
        redispatch(snap);
    });
}

void
ClusterSim::redispatch(RequestFailureSnapshot snap)
{
    Group &group = groups_[tierRoute_[snap.spec.tierId]];
    std::size_t replica_idx = pickReplica(group, snap.spec);
    if (replica_idx == kNoReplica) {
        // Still no candidate: burn another attempt. The budget bounds
        // this loop, so the run terminates even if the whole group
        // never recovers.
        requeue(std::move(snap));
        return;
    }
    if (replicas_[replica_idx]->health() == ReplicaHealth::Down) {
        noteDispatchFailure(replica_idx);
        requeue(std::move(snap));
        return;
    }
    noteDispatchSuccess(replica_idx);
    traceScope_.emitOn(ReplicaId{static_cast<int>(replica_idx)},
                       TraceEventKind::Dispatch, snap.spec.id,
                       snap.retries);
    replicas_[replica_idx]->resubmit(snap);
}

bool
ClusterSim::deadlineUnreachable(const RequestFailureSnapshot &snap,
                                SimTime earliest_start) const
{
    const QosTier &tier = trace_.tiers[snap.spec.tierId];
    SimTime deadline = tier.completionDeadline(
        snap.spec.arrival, TokenCount{snap.spec.decodeTokens});
    if (!std::isfinite(deadline.seconds()))
        return false;

    // Optimistic lower bound on remaining service: the whole
    // remaining prefill (prompt plus already-emitted tokens whose KV
    // must be recomputed) lands in ONE iteration — chunking only adds
    // per-iteration overhead, and the quadratic attention term
    // telescopes to exactly tokens²/2 however it is chunked — then
    // each remaining decode token after the first (which the last
    // prefill iteration emits) costs one minimal single-decode
    // iteration. Every PerfModel component is monotone in batch
    // composition and an unloaded replica is the best case, so no
    // schedule beats this bound; overshooting it proves the deadline
    // unreachable.
    int rem = snap.spec.decodeTokens - snap.decodeDone;
    if (rem <= 0)
        return false;
    std::int64_t prefill = snap.spec.promptTokens + snap.decodeDone;
    BatchWork pre{};
    pre.prefillTokens = prefill;
    pre.prefillCtxProduct =
        static_cast<double>(prefill) * static_cast<double>(prefill) /
        2.0;
    SimDuration bound = perf_.iterationTime(pre);
    if (rem > 1) {
        BatchWork dec{};
        dec.numDecodes = 1;
        dec.decodeCtxSum = prefill;
        bound += static_cast<double>(rem - 1) * perf_.iterationTime(dec);
    }
    return earliest_start + bound > deadline;
}

void
ClusterSim::recordCancelled(const RequestFailureSnapshot &snap)
{
    // Cancelled on entry to the retry path: the request terminates
    // unserved. Shaped like a retry-exhausted abandonment (same CSV
    // flag, infinite latencies, partial progress preserved); the
    // DeadlineCancel trace event and the deadlineCancelled counter
    // are what distinguish it.
    RequestRecord rec;
    rec.spec = snap.spec;
    rec.firstTokenTime = snap.firstTokenTime;
    rec.maxTbt = snap.maxTbt;
    rec.tbtDeadlineMisses = snap.tbtDeadlineMisses;
    rec.wasRelegated = snap.wasRelegated;
    rec.kvPreemptions = snap.kvPreemptions;
    rec.retries = snap.retries;
    rec.retryExhausted = true;
    ++deadlineCancelled_;
    traceScope_.emit(TraceEventKind::DeadlineCancel, snap.spec.id,
                     snap.retries);
    if (auditor_ != nullptr)
        auditor_->checkRecord(rec, trace_.tiers);
    metrics_.record(std::move(rec));
}

void
ClusterSim::recordExhausted(const RequestFailureSnapshot &snap)
{
    // Abandoned after the retry budget: the request terminates
    // unserved. Latencies stay infinite (like a rejection) but the
    // partial progress fields survive for failure attribution.
    RequestRecord rec;
    rec.spec = snap.spec;
    rec.firstTokenTime = snap.firstTokenTime;
    rec.maxTbt = snap.maxTbt;
    rec.tbtDeadlineMisses = snap.tbtDeadlineMisses;
    rec.wasRelegated = snap.wasRelegated;
    rec.kvPreemptions = snap.kvPreemptions;
    rec.retries = snap.retries;
    rec.retryExhausted = true;
    ++retriesExhausted_;
    traceScope_.emit(TraceEventKind::RetryExhausted, snap.spec.id,
                     snap.retries);
    if (auditor_ != nullptr)
        auditor_->checkRecord(rec, trace_.tiers);
    metrics_.record(std::move(rec));
}

const MetricsCollector &
ClusterSim::run()
{
    QOSERVE_ASSERT(!ran_, "ClusterSim::run() called twice");
    QOSERVE_ASSERT(!groups_.empty(), "no replica groups configured");
    ran_ = true;

    // Every request ends in exactly one record, so the store is
    // allocated once instead of regrown by doubling.
    metrics_.reserve(trace_.requests.size());
    if (!trace_.requests.empty()) {
        eq_.schedule(trace_.requests.front().arrival,
                     [this]() { injectArrival(0); });
    }
    eq_.run();

    // totalRecorded, not size: a streaming (non-retaining) collector
    // keeps no records but still counts every completion.
    QOSERVE_ASSERT(metrics_.totalRecorded() == trace_.requests.size(),
                   "requests lost: ", metrics_.totalRecorded(), " of ",
                   trace_.requests.size(), " completed");
    return metrics_;
}

int
ClusterSim::totalGpus() const
{
    return static_cast<int>(replicas_.size()) *
           cfg_.replica.hw.gpusPerReplica();
}

Trace
toPrefillOnlyTrace(Trace trace)
{
    for (auto &req : trace.requests)
        req.decodeTokens = 1;
    trace.appStats = computeAppStats(trace.requests);
    return trace;
}

} // namespace qoserve
