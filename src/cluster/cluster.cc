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
    for (int i = 0; i < attempt && delay < kMaxBackoff; ++i)
        delay *= kBackoffMultiplier;
    return std::min(delay, kMaxBackoff);
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
                            LoadBalancePolicy lb,
                            MetricsCollector::RecordSink stage_done)
{
    QOSERVE_ASSERT(count > 0, "group needs at least one replica");
    Group group;
    group.lb = lb;
    Replica::CompletionFn on_complete = [this](RequestRecord &&rec) {
        record(std::move(rec));
    };
    if (stage_done) {
        on_complete = [this, stage_done](RequestRecord &&rec) {
            if (auditor_ != nullptr)
                auditor_->checkRecord(rec, trace_.tiers);
            stage_done(rec);
        };
    }
    for (int i = 0; i < count; ++i) {
        auto replica = std::make_unique<Replica>(
            eq_, cfg_.replica, factory, cfg_.predictor, trace_.tiers,
            trace_.appStats, on_complete);
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
        // A shed arrival ends unserved, shaped like an admission
        // rejection; its BrownoutShed event tells them apart.
        ++brownoutShed_;
        traceScope_.emit(TraceEventKind::BrownoutShed, spec.id);
        recordUnserved(spec, nullptr);
    } else if (modes_.capTokens > 0 &&
               spec.decodeTokens > modes_.capTokens) {
        RequestSpec capped = spec;
        capped.decodeTokens = modes_.capTokens;
        ++brownoutCapped_;
        dispatch(capped, nullptr);
    } else {
        dispatch(spec, nullptr);
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
ClusterSim::dispatch(const RequestSpec &spec,
                     const RequestFailureSnapshot *retry)
{
    Group &group = groups_[tierRoute_[spec.tierId]];
    const std::size_t idx = pickReplica(group, spec);
    // No usable replica at all, or a blind front door (stale partition
    // view, health-unaware routing) picked a dead box, whose bounce
    // feeds the breaker: the request retries instead of being dropped.
    // The retry budget bounds the loop even if the group never heals.
    if (idx == kNoReplica ||
        replicas_[idx]->health() == ReplicaHealth::Down) {
        if (idx != kNoReplica)
            noteDispatchFailure(idx);
        requeue(retry != nullptr ? *retry : RequestFailureSnapshot{spec});
        return;
    }
    noteDispatchSuccess(idx);
    Replica &target = *replicas_[idx];
    const int retries = retry != nullptr ? retry->retries : 0;
    // Admission judges a request once, on its first attempt; a
    // re-dispatch always has retries >= 1.
    if (retries == 0 &&
        !admission_.admit(spec, eq_.now(),
                          TokenCount{target.scheduler()
                                         .pendingPrefillTokens()})) {
        recordUnserved(spec, nullptr);
        return;
    }
    traceScope_.emitOn(ReplicaId{static_cast<int>(idx)},
                       TraceEventKind::Dispatch, spec.id, retries);
    target.submit(spec, retry);
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
        ++retriesExhausted_;
        traceScope_.emit(TraceEventKind::RetryExhausted, snap.spec.id,
                         snap.retries);
        recordUnserved(snap.spec, &snap);
        return;
    }
    SimDuration delay = cfg_.retry.backoffFor(snap.retries);
    if (cfg_.deadlineCancel &&
        deadlineUnreachable(snap, eq_.now() + delay)) {
        // Burning a retry on it could not meet the SLO.
        ++deadlineCancelled_;
        traceScope_.emit(TraceEventKind::DeadlineCancel, snap.spec.id,
                         snap.retries);
        recordUnserved(snap.spec, &snap);
        return;
    }
    snap.retries += 1;
    ++redispatches_;
    traceScope_.emit(TraceEventKind::RetryQueued, snap.spec.id,
                     snap.retries);
    eq_.scheduleAfter(delay, [this, snap = std::move(snap)]() {
        dispatch(snap.spec, &snap);
    });
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
ClusterSim::recordUnserved(const RequestSpec &spec,
                           const RequestFailureSnapshot *abandoned)
{
    RequestRecord rec;
    rec.spec = spec;
    if (abandoned == nullptr) {
        rec.rejected = true;
    } else {
        // The partial progress survives for failure attribution. A
        // snapshot taken before any dispatch carries the defaults.
        rec.firstTokenTime = abandoned->firstTokenTime;
        rec.maxTbt = abandoned->maxTbt;
        rec.tbtDeadlineMisses = abandoned->tbtDeadlineMisses;
        rec.wasRelegated = abandoned->wasRelegated;
        rec.kvPreemptions = abandoned->kvPreemptions;
        rec.retries = abandoned->retries;
        rec.retryExhausted = true;
    }
    record(std::move(rec));
}

void
ClusterSim::record(RequestRecord &&rec)
{
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
