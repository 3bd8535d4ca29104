/**
 * @file
 * QoServe scheduler implementation.
 */

#include "sched/qoserve_scheduler.hh"

#include <algorithm>

#include "predictor/latency_predictor.hh"
#include "simcore/logging.hh"

namespace qoserve {

QoServeScheduler::QoServeScheduler(const SchedulerEnv &env,
                                   QoServeConfig qos_cfg,
                                   ChunkedSchedulerConfig cfg)
    : Scheduler(env, cfg), qosCfg_(qos_cfg)
{
    if (qosCfg_.enableDynamicChunking && env.predictor == nullptr)
        QOSERVE_FATAL("dynamic chunking requires a latency predictor");
    QOSERVE_ASSERT(qosCfg_.maxChunkTokens >= QoServeConfig::kMinChunkTokens,
                   "max chunk ", qosCfg_.maxChunkTokens,
                   " below the ", QoServeConfig::kMinChunkTokens,
                   "-token chunk floor");
    QOSERVE_ASSERT(qosCfg_.alphaMsPerToken >= 0.0, "negative alpha");
}

double
QoServeScheduler::effectiveAlpha() const
{
    if (!qosCfg_.enableHybridPriority)
        return 0.0;
    if (!qosCfg_.adaptiveAlpha)
        return qosCfg_.alphaMsPerToken * 1e-3;
    // Load-adaptive tuning (§3.6): ramp alpha from the low-load
    // value to the full value as the prefill backlog approaches the
    // overload threshold.
    double load = estPrefillTime(static_cast<double>(
                      pendingPrefillTokens())) /
                  QoServeConfig::kOverloadThreshold;
    load = std::min(1.0, std::max(0.0, load));
    constexpr double kLow = QoServeConfig::kAlphaLowLoadMs;
    double alpha_ms = kLow + (qosCfg_.alphaMsPerToken - kLow) * load;
    return alpha_ms * 1e-3;
}

double
QoServeScheduler::priorityOf(const Request &req, SimTime) const
{
    // Eqs. (4) and (5): deadline term (EDF semantics) plus alpha
    // times the remaining-work estimate (SRPF semantics). Cached
    // keys are refreshed whenever a request's progress changes, so
    // an adaptive alpha takes effect incrementally.
    double alpha = effectiveAlpha();
    double deadline = req.urgencyDeadline().seconds();
    double work = static_cast<double>(req.prefillRemaining());
    if (!req.tier().interactive)
        work += req.conservativeDecodeTokens();
    return deadline + alpha * work;
}

SchedulerAuditView
QoServeScheduler::auditView(bool full_detail) const
{
    SchedulerAuditView view = Scheduler::auditView(full_detail);
    if (qosCfg_.enableDynamicChunking)
        view.minChunkTokens = QoServeConfig::kMinChunkTokens;
    return view;
}

int
QoServeScheduler::chunkBudget(SimTime now, const Batch &batch) const
{
    if (!qosCfg_.enableDynamicChunking)
        return config().fixedChunkTokens;

    // Minimum TBT slack across interactive decoding requests: the
    // iteration must finish before the earliest next-token deadline
    // (§3.3). The scan reads only the decode lanes, which are the
    // batch's decodes. Non-interactive decodes impose no per-token
    // deadline: theirs is kTimeNever, so their slack is infinite and
    // never lowers the minimum. Requests already past their token
    // schedule (negative slack — their Eq. 2 deadlines are anchored
    // to a missed TTFT) cannot be saved by pacing and must not drag
    // the whole replica to the floor chunk for their entire decode;
    // they still receive a token every iteration.
    SimDuration min_slack = kDurationNever;
    for (const DecodeLane &lane : decodeLanes()) {
        SimDuration slack = lane.progress.nextTokenDeadline() - now;
        if (slack <= 0.0)
            continue;
        min_slack = std::min(min_slack, slack);
    }

    if (min_slack == kDurationNever)
        return qosCfg_.maxChunkTokens;

    BatchFeatures f;
    f.numDecodes = static_cast<double>(batch.numDecodes);
    // Integer-valued contexts sum exactly in doubles, so the
    // scheduler's running integer sum is bitwise identical to a
    // per-call accumulation loop.
    f.decodeCtxSum = static_cast<double>(batch.decodeCtxSum);
    const Request *head = peekPrefillHead();
    f.prefillContext =
        head != nullptr ? static_cast<double>(head->contextLength()) : 0.0;

    ChunkSolverCache *memo =
        qosCfg_.enableSolverMemo ? &solverCache_ : nullptr;
    int solved =
        min_slack <= 0.0
            ? 0
            : solveChunkBudget(*env().predictor, f, min_slack,
                               qosCfg_.maxChunkTokens,
                               QoServeConfig::kChunkStep,
                               memo);

    // When slack is exhausted, revert to the TBT-sized floor rather
    // than starving prefill (§3.5): per-token deadlines are absolute,
    // so a small transient deficit heals on subsequent iterations.
    return std::max(solved, QoServeConfig::kMinChunkTokens);
}

bool
QoServeScheduler::overloaded(SimTime now) const
{
    (void)now;
    return estPrefillTime(static_cast<double>(pendingPrefillTokens())) >
           QoServeConfig::kOverloadThreshold;
}

bool
QoServeScheduler::willViolate(const Request &req, SimTime now) const
{
    if (req.tier().interactive) {
        SimTime eta = now + estPrefillTime(
                                static_cast<double>(req.prefillRemaining()));
        return eta > req.firstTokenDeadline();
    }
    double decode_left =
        std::max(0.0, req.conservativeDecodeTokens() -
                          static_cast<double>(req.decodeDone()));
    SimTime eta =
        now +
        estPrefillTime(static_cast<double>(req.prefillRemaining())) +
        estDecodeTime(decode_left);
    return eta > req.completionDeadline();
}

bool
QoServeScheduler::shouldRelegate(const Request &req, SimTime now) const
{
    if (!qosCfg_.enableEagerRelegation)
        return false;
    if (!req.spec().important && overloaded(now))
        return true; // Hint-based relegation under overload (§3.4).
    return willViolate(req, now);
}

void
QoServeScheduler::collectUrgentInflight(SimTime now,
                                        std::vector<Request *> &out) const
{
    // A partially prefilled request whose TTFT/TTLT deadline cannot
    // absorb one more iteration of delay must not be preempted this
    // iteration (§3.4 condition 2).
    SimDuration margin = typicalIterationTime();
    // The sort below imposes a total order, so hash order here cannot
    // leak into the result.
    // qoserve-lint: allow(unordered-iter)
    for (Request *req : partiallyPrefilled()) {
        if (req->relegated())
            continue;
        SimTime eta =
            now + margin +
            estPrefillTime(static_cast<double>(req->prefillRemaining()));
        if (eta > req->firstTokenDeadline())
            out.push_back(req);
    }
    // Tie-break equal deadlines on request id: std::sort is unstable
    // and the input order is hash-dependent, so without the id key the
    // ordering would vary with heap addresses.
    std::sort(out.begin(), out.end(), [](Request *a, Request *b) {
        if (a->firstTokenDeadline() != b->firstTokenDeadline())
            return a->firstTokenDeadline() < b->firstTokenDeadline();
        return a->id() < b->id();
    });
}

} // namespace qoserve
