/**
 * @file
 * Brownout controller implementation.
 */

#include "cluster/brownout.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace qoserve {

const char *
brownoutModeName(BrownoutMode mode)
{
    switch (mode) {
      case BrownoutMode::Normal:
        return "normal";
      case BrownoutMode::CapTokens:
        return "cap-tokens";
      case BrownoutMode::ShedLowTier:
        return "shed-low-tier";
      case BrownoutMode::BypassCache:
        return "bypass-cache";
    }
    QOSERVE_PANIC("unknown brownout mode");
}

BrownoutController::BrownoutController(const BrownoutConfig &cfg,
                                       ClusterSim &cluster)
    : cfg_(cfg), cluster_(cluster)
{
    if (!cfg_.enabled)
        return;
    if (!(cfg_.interval > 0.0))
        QOSERVE_FATAL("brownout interval must be positive, got ",
                      cfg_.interval);
    if (!(cfg_.enterBacklog > 0.0))
        QOSERVE_FATAL("brownout enter backlog must be positive, got ",
                      cfg_.enterBacklog);
    if (!(cfg_.exitBacklog < cfg_.enterBacklog) ||
        cfg_.exitBacklog < 0.0) {
        QOSERVE_FATAL("brownout exit backlog must be in [0, enter), "
                      "got exit=",
                      cfg_.exitBacklog, " enter=", cfg_.enterBacklog);
    }
    if (cfg_.capTokens <= 0)
        QOSERVE_FATAL("brownout token cap must be positive, got ",
                      cfg_.capTokens);
    const int tiers = static_cast<int>(cluster_.tiers().size());
    if (cfg_.shedTier >= tiers)
        QOSERVE_FATAL("brownout shed tier ", cfg_.shedTier,
                      " outside the tier table (", tiers, " tiers)");
    shedTier_ = cfg_.shedTier >= 0 ? cfg_.shedTier : tiers - 1;
}

void
BrownoutController::start()
{
    if (!cfg_.enabled)
        return;
    QOSERVE_ASSERT(cluster_.numReplicas() > 0,
                   "brownout controller started before any replica "
                   "group was added");
    cluster_.eventQueue().scheduleDaemon(cluster_.eventQueue().now(),
                                         [this]() { fire(); });
}

double
BrownoutController::backlogPerReplica() const
{
    // Live (non-down) replicas only: during a zone outage the signal
    // must reflect the load concentrating on the survivors, not be
    // diluted by empty dead boxes.
    std::int64_t backlog = 0;
    std::size_t live = 0;
    for (std::size_t i = 0; i < cluster_.numReplicas(); ++i) {
        const Replica &replica = cluster_.replica(i);
        if (replica.health() == ReplicaHealth::Down)
            continue;
        backlog += replica.scheduler().pendingPrefillTokens();
        ++live;
    }
    if (live == 0)
        return 0.0;
    return static_cast<double>(backlog) / static_cast<double>(live);
}

DegradedModes
BrownoutController::modesFor(int level) const
{
    DegradedModes modes;
    if (level >= static_cast<int>(BrownoutMode::CapTokens))
        modes.capTokens = cfg_.capTokens;
    if (level >= static_cast<int>(BrownoutMode::ShedLowTier))
        modes.shedTier = shedTier_;
    if (level >= static_cast<int>(BrownoutMode::BypassCache))
        modes.bypassCache = true;
    return modes;
}

void
BrownoutController::stepTo(int level)
{
    level_ = level;
    maxLevel_ = std::max(maxLevel_, level_);
    ++steps_;
    overCount_ = 0;
    underCount_ = 0;
    cluster_.applyDegradedModes(modesFor(level_));
    if (TraceSink *sink = cluster_.traceSink()) {
        sink->emit({TraceEventKind::BrownoutStep,
                    cluster_.eventQueue().now(), kNoTraceRequest, -1,
                    level_, 0.0});
    }
}

void
BrownoutController::fire()
{
    double backlog = backlogPerReplica();
    if (backlog > cfg_.enterBacklog) {
        ++overCount_;
        underCount_ = 0;
        if (overCount_ >= BrownoutConfig::kEnterSamples &&
            level_ < kBrownoutModes - 1)
            stepTo(level_ + 1);
    } else if (backlog < cfg_.exitBacklog) {
        ++underCount_;
        overCount_ = 0;
        if (underCount_ >= BrownoutConfig::kExitSamples && level_ > 0)
            stepTo(level_ - 1);
    } else {
        // Inside the hysteresis band: hold the level, reset both
        // streaks so a boundary-straddling signal cannot creep a
        // step through.
        overCount_ = 0;
        underCount_ = 0;
    }
    // MetricsSampler discipline: observe the simulation, never
    // extend it. Daemon scheduling keeps this tick and the metrics
    // sampler's from counting as work for each other.
    if (cluster_.eventQueue().hasRealWork()) {
        cluster_.eventQueue().scheduleDaemonAfter(cfg_.interval,
                                                  [this]() { fire(); });
    }
}

} // namespace qoserve
