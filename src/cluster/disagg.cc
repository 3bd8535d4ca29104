/**
 * @file
 * Disaggregated serving implementation.
 */

#include "cluster/disagg.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace qoserve {

DecodeReplica::DecodeReplica(
    EventQueue &eq, Replica::Config cfg, DecodePolicy policy,
    SimDuration strictest_tbt, Replica::CompletionFn on_complete)
    : eq_(eq), perf_(cfg.hw, cfg.perfParams),
      kv_(TokenCount{cfg.hw.kvCapacityTokens()}), policy_(policy),
      strictestTbt_(strictest_tbt), onComplete_(std::move(on_complete))
{
    QOSERVE_ASSERT(strictestTbt_ > 0.0, "TBT target must be positive");
}

void
DecodeReplica::admit(std::unique_ptr<Request> req)
{
    QOSERVE_ASSERT(req->phase() == RequestPhase::Decoding,
                   "decode pool admits decoding requests only");
    Request *ptr = req.get();
    ptr->setKvSlot(kv_.open(ptr->id()));
    auto [it, inserted] = owned_.emplace(req->id(), std::move(req));
    QOSERVE_ASSERT(inserted, "duplicate decode admission");
    pending_.push_back(ptr);
    maybeStart();
}

SimDuration
DecodeReplica::iterTime(const std::vector<Request *> &batch) const
{
    BatchWork w;
    w.numDecodes = static_cast<int>(batch.size());
    for (const Request *r : batch)
        w.decodeCtxSum += r->contextLength();
    return perf_.iterationTime(w);
}

std::vector<Request *>
DecodeReplica::selectBatch()
{
    if (policy_ == DecodePolicy::StrictestTbtCap) {
        // Longest admission-order prefix whose iteration fits the
        // strictest TBT; always make progress with at least one.
        std::vector<Request *> batch;
        for (Request *r : active_) {
            batch.push_back(r);
            if (batch.size() > 1 && iterTime(batch) > strictestTbt_) {
                batch.pop_back();
                break;
            }
        }
        return batch;
    }

    // DeadlineAware: serve overdue requests unconditionally, then
    // add requests in deadline order while the predicted iteration
    // still completes before the earliest selected deadline.
    std::vector<Request *> sorted = active_;
    // total: equal deadlines break on request id.
    std::sort(sorted.begin(), sorted.end(), [](Request *a, Request *b) {
        if (a->nextTokenDeadline() != b->nextTokenDeadline())
            return a->nextTokenDeadline() < b->nextTokenDeadline();
        return a->id() < b->id();
    });

    std::vector<Request *> batch;
    SimTime now = eq_.now();
    SimTime earliest = kTimeNever;
    for (Request *r : sorted) {
        SimTime deadline = r->nextTokenDeadline();
        batch.push_back(r);
        if (deadline <= now)
            continue; // Already late: serve as soon as possible.
        SimTime bound = std::min(earliest, deadline);
        if (now + iterTime(batch) > bound) {
            batch.pop_back();
            break;
        }
        earliest = bound;
    }
    if (batch.empty() && !sorted.empty())
        batch.push_back(sorted.front());
    return batch;
}

void
DecodeReplica::maybeStart()
{
    if (busy_)
        return;

    // Promote pending requests: reserve the *final* context (current
    // KV plus all remaining tokens) up front so iterations never run
    // out of blocks mid-flight.
    while (!pending_.empty() &&
           active_.size() < static_cast<std::size_t>(kMaxBatch)) {
        Request *r = pending_.front();
        std::int64_t reserve = r->contextLength() + r->decodeRemaining();
        if (!kv_.grow(r->kvSlot(), TokenCount{reserve}))
            break;
        pending_.pop_front();
        active_.push_back(r);
    }

    if (active_.empty())
        return;

    std::vector<Request *> batch = selectBatch();
    QOSERVE_ASSERT(!batch.empty(), "empty decode batch with work");
    SimDuration latency = iterTime(batch);
    busy_ = true;
    ++iterations_;
    eq_.scheduleAfter(latency, [this, batch = std::move(batch)]() {
        completeIteration(batch);
    });
}

void
DecodeReplica::completeIteration(const std::vector<Request *> &batch)
{
    busy_ = false;
    SimTime now = eq_.now();
    for (Request *r : batch)
        r->applyDecodeToken(now);

    // Retire finished requests in one stable pass: the survivors keep
    // their order in active_ and the finished ones theirs in the
    // reused scratch, so a steady iteration allocates nothing.
    doneScratch_.clear();
    auto kept = active_.begin();
    for (Request *r : active_) {
        if (r->phase() == RequestPhase::Finished)
            doneScratch_.push_back(r);
        else
            *kept++ = r;
    }
    active_.erase(kept, active_.end());
    for (Request *r : doneScratch_) {
        kv_.release(r->kvSlot());
        RequestRecord rec = r->takeRecord();
        owned_.erase(r->id());
        if (onComplete_)
            onComplete_(std::move(rec));
    }
    maybeStart();
}

namespace {

/**
 * @p trace in prefill-stage form: a request "completes" on the
 * prefill pool when its first token is produced. The appStats stay
 * those of the input trace, so prefill schedulers rank requests by
 * their applications' real decode lengths.
 */
Trace
prefillStageTrace(Trace trace)
{
    for (RequestSpec &spec : trace.requests)
        spec.decodeTokens = 1;
    return trace;
}

} // namespace

DisaggCluster::DisaggCluster(Config cfg, Trace trace)
    : cfg_(std::move(cfg)), trace_(std::move(trace)),
      prefill_({.replica = cfg_.replica, .predictor = cfg_.predictor},
               prefillStageTrace(trace_)),
      metrics_(trace_.tiers)
{
    QOSERVE_ASSERT(cfg_.numPrefillReplicas > 0 &&
                       cfg_.numDecodeReplicas > 0,
                   "pools must be non-empty");
    QOSERVE_ASSERT(cfg_.prefillFactory != nullptr,
                   "prefill factory required");
    // onPrefillDone() finds a request's full spec by its id.
    for (std::size_t i = 0; i < trace_.requests.size(); ++i) {
        QOSERVE_ASSERT(trace_.requests[i].id == i,
                       "disaggregated trace needs ids dense from 0 in "
                       "arrival order; request ",
                       i, " has id ", trace_.requests[i].id);
    }

    SimDuration strictest_tbt = kDurationNever;
    for (const QosTier &tier : trace_.tiers) {
        if (tier.interactive)
            strictest_tbt = std::min(strictest_tbt, tier.tbtSlo);
    }
    if (strictest_tbt == kDurationNever)
        strictest_tbt = 0.1; // No interactive tier: loose default.

    prefill_.addReplicaGroup(cfg_.numPrefillReplicas,
                             cfg_.prefillFactory);
    MetricsCollector &prefill_records = prefill_.metricsCollector();
    prefill_records.setRetainRecords(false);
    prefill_records.setRecordSink(
        [this](const RequestRecord &rec) { onPrefillDone(rec); });
    for (int i = 0; i < cfg_.numDecodeReplicas; ++i) {
        decodePool_.push_back(std::make_unique<DecodeReplica>(
            prefill_.eventQueue(), cfg_.replica, cfg_.decodePolicy,
            strictest_tbt, [this](RequestRecord &&rec) {
                metrics_.record(std::move(rec));
            }));
    }
}

void
DisaggCluster::onPrefillDone(const RequestRecord &rec)
{
    const RequestSpec &spec = trace_.requests[rec.spec.id];
    SimTime first_token = rec.finishTime;

    // Transfer the prompt KV to the decode pool.
    double bytes =
        static_cast<double>(spec.promptTokens) *
        static_cast<double>(cfg_.replica.hw.model.kvBytesPerToken());
    kvBytesTransferred_ += bytes;
    SimDuration delay = bytes / Config::kKvTransferBandwidth;

    prefill_.eventQueue().scheduleAfter(delay, [this, spec,
                                                first_token]() {
        AppStats stats;
        if (spec.appId >= 0 &&
            spec.appId < static_cast<int>(trace_.appStats.size())) {
            stats = trace_.appStats[spec.appId];
        }
        auto req = std::make_unique<Request>(
            spec, trace_.tiers[spec.tierId], stats);
        req->primeForDecode(first_token);
        if (req->phase() == RequestPhase::Finished) {
            metrics_.record(req->takeRecord());
            return;
        }
        decodePool_[decodeRr_]->admit(std::move(req));
        decodeRr_ = (decodeRr_ + 1) % decodePool_.size();
    });
}

const MetricsCollector &
DisaggCluster::run()
{
    metrics_.reserve(trace_.requests.size());
    // The decode pool shares the prefill cluster's event queue, so
    // this drains both stages.
    prefill_.run();
    QOSERVE_ASSERT(metrics_.size() == trace_.requests.size(),
                   "requests lost in disaggregated pipeline: ",
                   metrics_.size(), " of ", trace_.requests.size());
    return metrics_;
}

} // namespace qoserve
