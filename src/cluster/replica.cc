/**
 * @file
 * Replica implementation.
 */

#include "cluster/replica.hh"

#include <algorithm>

#include "audit/invariant_auditor.hh"
#include "simcore/logging.hh"

namespace qoserve {

Replica::Replica(EventQueue &eq, Config cfg,
                 const SchedulerFactory &factory,
                 const LatencyPredictor *predictor, TierTable tiers,
                 std::vector<AppStats> app_stats,
                 CompletionFn on_complete)
    : eq_(eq), perf_(cfg.hw, cfg.perfParams),
      kv_(TokenCount{cfg.hw.kvCapacityTokens()}, TokenCount{cfg.kvBlockTokens}),
      factory_(factory), predictor_(predictor), tiers_(std::move(tiers)),
      appStats_(std::move(app_stats)),
      onComplete_(std::move(on_complete))
{
    // The cache must exist before the scheduler: the factory wires it
    // into the scheduler environment.
    prefixCache_ = std::make_unique<PrefixCache>(kv_, cfg.prefixCache);
    prefixCache_->setTrace(&trace_);
    buildScheduler();
}

Replica::~Replica()
{
    // The scheduler's queues point into the pool; drop them before
    // the requests they reference.
    scheduler_.reset();
    inflightBatch_.clear();
    // qoserve-lint: allow(unordered-iter) — destruction is unobservable.
    for (auto &entry : live_)
        pool_.destroy(entry.second);
    live_.clear();
}

void
Replica::buildScheduler()
{
    SchedulerEnv env;
    env.kv = &kv_;
    env.perf = &perf_;
    env.predictor = predictor_;
    env.prefixCache = prefixCache_.get();
    env.trace = &trace_;
    scheduler_ = factory_(env);
    QOSERVE_ASSERT(scheduler_ != nullptr, "factory returned no scheduler");

    scheduler_->setCompletionHandler([this](Request *req) {
        RequestRecord rec = req->takeRecord();
        live_.erase(req->id());
        pool_.destroy(req);
        if (onComplete_)
            onComplete_(std::move(rec));
    });
}

Request *
Replica::admit(const RequestSpec &spec)
{
    QOSERVE_ASSERT(health_ != ReplicaHealth::Down,
                   "request submitted to a down replica");
    QOSERVE_ASSERT(spec.tierId >= 0 &&
                       spec.tierId < static_cast<int>(tiers_.size()),
                   "request references unknown tier");
    // A prompt larger than the whole cache would be prefilled until KV
    // runs out, preempted, reset and retried forever.
    const std::int64_t prompt_blocks =
        (spec.promptTokens + kv_.blockTokens() - 1) / kv_.blockTokens();
    if (prompt_blocks > kv_.totalBlocks())
        QOSERVE_FATAL("request ", spec.id, " has a ", spec.promptTokens,
                      "-token prompt but the replica's KV cache holds ",
                      kv_.totalBlocks() * kv_.blockTokens(),
                      " tokens: its prefill could never finish");
    AppStats stats;
    if (spec.appId >= 0 &&
        spec.appId < static_cast<int>(appStats_.size())) {
        stats = appStats_[spec.appId];
    }
    Request *ptr = pool_.create(spec, tiers_[spec.tierId], stats);
    auto [it, inserted] = live_.emplace(spec.id, ptr);
    if (!inserted) {
        pool_.destroy(ptr);
        QOSERVE_PANIC("duplicate request id submitted: ", spec.id);
    }
    return ptr;
}

void
Replica::submit(const RequestSpec &spec)
{
    Request *req = admit(spec);
    attachCachedPrefix(req);
    scheduler_->enqueue(req, eq_.now());
    maybeStartIteration();
}

void
Replica::resubmit(const RequestFailureSnapshot &snap)
{
    Request *req = admit(snap.spec);
    req->restoreForRetry(snap);
    // Re-resolve the prefix against *this* replica's cache — the one
    // on the crashed replica died with it.
    attachCachedPrefix(req);
    scheduler_->enqueue(req, eq_.now());
    maybeStartIteration();
}

void
Replica::attachCachedPrefix(Request *req)
{
    if (!prefixCache_->enabled() || prefixBypass_)
        return;
    req->setKvSlot(kv_.open(req->id()));
    int tokens = prefixCache_->attach(req->kvSlot(), req->spec(), eq_.now());
    if (tokens > 0)
        req->attachCachedPrefix(TokenCount{tokens});
}

void
Replica::maybeStartIteration()
{
    if (busy_ || health_ == ReplicaHealth::Down ||
        !scheduler_->hasWork())
        return;

    SimTime start = eq_.now();
    scheduler_->formBatchInto(inflightBatch_, start);
    const Batch &batch = inflightBatch_;
    if (batch.empty())
        return;

    // Straggling multiplies latency; the healthy factor of exactly
    // 1.0 leaves the product bit-identical to the undisturbed run.
    SimDuration latency = perf_.iterationTime(batch.work()) * slowdown_;
    QOSERVE_ASSERT(latency > 0.0, "non-empty batch with zero latency");
    busy_ = true;
    ++iterations_;
    inflightStart_ = start;
    inflightLatency_ = latency;

    if (observer_) {
        BatchObservation obs;
        obs.start = start;
        obs.latency = latency;
        obs.prefillTokens = batch.prefillTokens();
        obs.numDecodes = static_cast<int>(batch.decodes.size());
        observer_(obs);
    }

    if (trace_.on()) {
        trace_.emit(TraceEventKind::IterStart, kNoTraceRequest,
                    batch.prefillTokens(),
                    static_cast<double>(batch.decodes.size()));
        for (const ScheduledChunk &chunk : batch.prefills) {
            trace_.emit(TraceEventKind::ChunkStart,
                        chunk.request->id(), chunk.chunkTokens);
        }
    }

    // The closure captures only `this`: the batch lives in
    // inflightBatch_, so the capture fits std::function's small
    // buffer and the iteration hot path performs no heap allocation.
    inflightEvent_ = eq_.scheduleAfter(latency, [this]() {
        busyTime_ += inflightLatency_;
        completeIteration(inflightBatch_, inflightStart_);
    });
}

void
Replica::completeIteration(const Batch &batch, SimTime)
{
    busy_ = false;
    inflightEvent_ = 0;
    trace_.emit(TraceEventKind::IterEnd);
    scheduler_->onBatchComplete(batch, eq_.now());
    // Audit between batch completion and the next formBatch: every
    // queue and the KV cache are at rest here.
    if (auditor_ != nullptr)
        auditor_->onIterationComplete(kv_, *scheduler_, eq_,
                                      prefixCache_.get());
    maybeStartIteration();
}

void
Replica::fail()
{
    QOSERVE_ASSERT(health_ != ReplicaHealth::Down,
                   "fail() on an already-down replica");
    QOSERVE_ASSERT(failureHandler_,
                   "replica crash with no failure handler installed: "
                   "live requests would be lost");
    health_ = ReplicaHealth::Down;
    slowdown_ = 1.0;
    ++crashes_;

    // Discard the in-flight batch: its completion event is cancelled
    // (tombstoned in the queue) and only the elapsed part of the
    // iteration counts as busy time.
    if (busy_) {
        eq_.cancel(inflightEvent_);
        busyTime_ += eq_.now() - inflightStart_;
        busy_ = false;
        inflightEvent_ = 0;
        // The discarded batch points into live_, which is about to be
        // destroyed; drop the stale request pointers now.
        inflightBatch_.clear();
        // Close the aborted iteration on the trace's engine track.
        trace_.emit(TraceEventKind::IterEnd, kNoTraceRequest, 1);
    }

    // Snapshot every live request in id order — live_ is hash-ordered
    // and the hand-back order must be deterministic.
    std::vector<RequestFailureSnapshot> snaps;
    snaps.reserve(live_.size());
    // qoserve-lint: allow(unordered-iter) — sorted below.
    for (const auto &entry : live_)
        snaps.push_back(entry.second->failureSnapshot());
    std::sort(snaps.begin(), snaps.end(),
              [](const RequestFailureSnapshot &a,
                 const RequestFailureSnapshot &b) {
                  return a.spec.id < b.spec.id;
              });

    // The process is gone: every KV block is freed at once, the
    // scheduler is rebuilt empty (its queues pointed into live_), and
    // the request objects are destroyed after snapshotting.
    kv_.releaseAll();
    // The prefix cache's blocks died in releaseAll(); drop the tree
    // that pointed at them.
    prefixCache_->dropAll();
    buildScheduler();
    // qoserve-lint: allow(unordered-iter) — destruction is unobservable.
    for (auto &entry : live_)
        pool_.destroy(entry.second);
    live_.clear();

    if (auditor_ != nullptr)
        auditor_->onReplicaCrash(kv_, *scheduler_, live_.size(),
                                 eq_.now());

    for (const RequestFailureSnapshot &snap : snaps) {
        trace_.emit(TraceEventKind::RequestFailed, snap.spec.id);
        failureHandler_(snap);
    }
}

void
Replica::recover()
{
    QOSERVE_ASSERT(health_ == ReplicaHealth::Down,
                   "recover() on a replica that is not down");
    health_ = ReplicaHealth::Up;
    slowdown_ = 1.0;
    maybeStartIteration();
}

void
Replica::setSlowdown(double factor)
{
    QOSERVE_ASSERT(health_ != ReplicaHealth::Down,
                   "setSlowdown() on a down replica");
    QOSERVE_ASSERT(factor >= 1.0,
                   "slowdown factor must be >= 1, got ", factor);
    slowdown_ = factor;
    health_ = factor > 1.0 ? ReplicaHealth::Degraded : ReplicaHealth::Up;
}

} // namespace qoserve
