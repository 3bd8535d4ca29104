/**
 * @file
 * Baseline policy implementations.
 */

#include "sched/baseline_schedulers.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace qoserve {

FcfsScheduler::FcfsScheduler(const SchedulerEnv &env,
                             ChunkedSchedulerConfig cfg)
    : Scheduler(env, cfg)
{
}

double
FcfsScheduler::priorityOf(const Request &req, SimTime) const
{
    return req.spec().arrival.seconds();
}

EdfScheduler::EdfScheduler(const SchedulerEnv &env,
                           ChunkedSchedulerConfig cfg)
    : Scheduler(env, cfg)
{
}

double
EdfScheduler::priorityOf(const Request &req, SimTime) const
{
    return req.urgencyDeadline().seconds();
}

SjfScheduler::SjfScheduler(const SchedulerEnv &env,
                           ChunkedSchedulerConfig cfg)
    : Scheduler(env, cfg)
{
}

double
SjfScheduler::priorityOf(const Request &req, SimTime) const
{
    // Estimated total work: whole prompt plus conservative decode
    // estimate (the decode length is unknown a priori).
    return static_cast<double>(req.spec().promptTokens) +
           req.conservativeDecodeTokens();
}

SrpfScheduler::SrpfScheduler(const SchedulerEnv &env,
                             ChunkedSchedulerConfig cfg)
    : Scheduler(env, cfg)
{
}

double
SrpfScheduler::priorityOf(const Request &req, SimTime) const
{
    return static_cast<double>(req.prefillRemaining());
}

MedhaScheduler::MedhaScheduler(const SchedulerEnv &env, Options options,
                               ChunkedSchedulerConfig cfg)
    : Scheduler(env, cfg), options_(options)
{
    QOSERVE_ASSERT(options_.tbtTarget > 0.0, "TBT target must be positive");
    static_assert(Options::kMaxChunkTokens >= Options::kChunkStep,
                  "max chunk below one step");
}

double
MedhaScheduler::priorityOf(const Request &req, SimTime) const
{
    return req.spec().arrival.seconds();
}

int
MedhaScheduler::chunkBudget(SimTime, const Batch &batch) const
{
    // Size the chunk so this iteration's execution time stays at the
    // TBT target given the head request's accumulated context — the
    // chunk therefore shrinks as the prefill advances.
    const Request *head = peekPrefillHead();
    double context =
        head != nullptr ? static_cast<double>(head->contextLength()) : 0.0;

    BatchWork base;
    base.numDecodes = batch.numDecodes;
    base.decodeCtxSum = batch.decodeCtxSum;

    auto iter_time = [&](int chunk) {
        BatchWork w = base;
        w.prefillTokens = chunk;
        w.prefillCtxProduct =
            static_cast<double>(chunk) * (context + chunk / 2.0);
        return env().perf->iterationTime(w);
    };

    int step = Options::kChunkStep;
    int lo = 0;
    int hi = Options::kMaxChunkTokens / step;
    if (iter_time(hi * step) <= options_.tbtTarget)
        return hi * step;
    while (hi - lo > 1) {
        int mid = lo + (hi - lo) / 2;
        if (iter_time(mid * step) <= options_.tbtTarget)
            lo = mid;
        else
            hi = mid;
    }
    // Always make progress: never sink below one step.
    return std::max(step, lo * step);
}

} // namespace qoserve
