/**
 * @file
 * Decode-only scheduler implementation.
 */

#include "sched/decode_scheduler.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace qoserve {

namespace {

/** KV context of a decoding lane: its request's prompt plus the
 *  tokens emitted so far (the request itself lags the lane). */
std::int64_t
laneContext(const DecodeLane &lane)
{
    return lane.req->prefillDone() + lane.progress.done;
}

} // namespace

DecodeScheduler::DecodeScheduler(const SchedulerEnv &env,
                                 DecodePolicy policy,
                                 SimDuration strictest_tbt)
    : Scheduler(env, ChunkedSchedulerConfig{}), policy_(policy),
      strictestTbt_(strictest_tbt)
{
    QOSERVE_ASSERT(strictestTbt_ > 0.0, "TBT target must be positive");
}

double
DecodeScheduler::priorityOf(const Request &req, SimTime) const
{
    return req.cachedPriority;
}

std::int64_t
DecodeScheduler::finalBlocks(std::int64_t context,
                             std::int64_t remaining) const
{
    const std::int64_t block = env().kv->blockTokens();
    return (context + remaining + block - 1) / block;
}

void
DecodeScheduler::enqueue(Request *req, SimTime)
{
    QOSERVE_ASSERT(req->phase() == RequestPhase::Decoding,
                   "decode pool admits decoding requests only");
    if (finalBlocks(req->contextLength(), req->decodeRemaining()) >
        env().kv->totalBlocks()) {
        QOSERVE_FATAL("request ", req->id(), " needs ",
                      req->contextLength() + req->decodeRemaining(),
                      " KV tokens to finish decoding but the replica "
                      "holds ",
                      env().kv->totalBlocks() * env().kv->blockTokens());
    }
    waiting_.push_back(req);
    admitWaiting();
}

void
DecodeScheduler::admitWaiting()
{
    BlockManager &kv = *env().kv;
    while (!waiting_.empty() &&
           decodeLanes().size() < static_cast<std::size_t>(kMaxBatch)) {
        Request *req = waiting_.front();
        std::int64_t blocks =
            finalBlocks(req->contextLength(), req->decodeRemaining());
        if (blocks > kv.totalBlocks() - reservedBlocks_)
            break;
        waiting_.pop_front();
        reservedBlocks_ += blocks;
        req->cachedPriority = nextRank_;
        nextRank_ += 1.0;
        // The transferred prompt KV; the newest token's entry is
        // appended when it is fed back, as on any decoding replica.
        req->setKvSlot(kv.open(req->id()));
        bool held =
            kv.grow(req->kvSlot(), TokenCount{req->contextLength() - 1});
        QOSERVE_ASSERT(held, "reserved KV not available for request ",
                       req->id());
        startDecode(req);
    }
}

void
DecodeScheduler::formBatchInto(Batch &batch, SimTime now)
{
    batch.clear();
    if (decodeLanes().empty())
        return;

    if (policy_ == DecodePolicy::DeadlineAware) {
        selectByDeadline(batch, now);
    } else {
        // Longest admission-order prefix whose iteration fits the
        // strictest TBT; always make progress with at least one.
        BatchWork work;
        for (const DecodeLane &lane : decodeLanes()) {
            BatchWork next = work;
            next.numDecodes += 1;
            next.decodeCtxSum += laneContext(lane);
            if (next.numDecodes > 1 &&
                env().perf->iterationTime(next) > strictestTbt_)
                break;
            work = next;
        }
        batch.numDecodes = work.numDecodes;
        batch.decodeCtxSum = work.decodeCtxSum;
    }

    SchedulerStats &stats = mutableStats();
    ++stats.batchesFormed;
    stats.decodeTokensScheduled += batch.numDecodes;
}

void
DecodeScheduler::selectByDeadline(Batch &batch, SimTime now)
{
    // Serve overdue requests unconditionally, then add requests in
    // deadline order while the predicted iteration still completes
    // before the earliest selected deadline. The selection is a
    // prefix of the deadline order, so sort the lanes themselves.
    std::vector<DecodeLane> &lanes = mutableDecodeLanes();
    // total: equal deadlines break on request id.
    std::sort(lanes.begin(), lanes.end(),
              [](const DecodeLane &a, const DecodeLane &b) {
                  SimTime da = a.progress.nextTokenDeadline();
                  SimTime db = b.progress.nextTokenDeadline();
                  if (da != db)
                      return da < db;
                  return a.req->id() < b.req->id();
              });

    BatchWork work;
    SimTime earliest = kTimeNever;
    for (const DecodeLane &lane : lanes) {
        BatchWork next = work;
        next.numDecodes += 1;
        next.decodeCtxSum += laneContext(lane);
        SimTime deadline = lane.progress.nextTokenDeadline();
        if (deadline > now) {
            SimTime bound = std::min(earliest, deadline);
            if (now + env().perf->iterationTime(next) > bound)
                break;
            earliest = bound;
        }
        work = next;
    }
    if (work.numDecodes == 0) {
        work.numDecodes = 1;
        work.decodeCtxSum = laneContext(lanes.front());
    }
    batch.numDecodes = work.numDecodes;
    batch.decodeCtxSum = work.decodeCtxSum;

    // Requests finishing in one iteration retire in lane order: put
    // the batch back in admission order.
    // total: admission ranks are unique.
    std::sort(lanes.begin(), lanes.begin() + work.numDecodes,
              [](const DecodeLane &a, const DecodeLane &b) {
                  return a.req->cachedPriority < b.req->cachedPriority;
              });
}

void
DecodeScheduler::onBatchComplete(const Batch &batch, SimTime end)
{
    Scheduler::onBatchComplete(batch, end);
    // Finished requests left their lanes and released their KV; the
    // reservation is the survivors' final contexts.
    reservedBlocks_ = 0;
    for (const DecodeLane &lane : decodeLanes())
        reservedBlocks_ += finalBlocks(laneContext(lane),
                                       lane.progress.target -
                                           lane.progress.done);
    admitWaiting();
}

SchedulerAuditView
DecodeScheduler::auditView(bool full_detail) const
{
    SchedulerAuditView view = Scheduler::auditView(full_detail);
    view.maxDecodeBatch = kMaxBatch;
    return view;
}

} // namespace qoserve
