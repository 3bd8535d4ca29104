/**
 * @file
 * Fault injector implementation.
 */

#include "fault/fault_injector.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "simcore/logging.hh"

namespace qoserve {

FaultInjector::FaultInjector(FaultConfig cfg, ClusterSim &cluster)
    : cfg_(cfg), cluster_(cluster)
{
    if (!cfg_.enabled())
        return; // Zero events scheduled: zero cost when off.

    // Configuration comes from flags/benches: bad values are user
    // errors, like BlockManager's capacity validation.
    if (!(cfg_.horizon > SimTime{}) ||
        !std::isfinite(cfg_.horizon.seconds())) {
        QOSERVE_FATAL("fault injection needs a positive finite "
                      "horizon, got ",
                      cfg_.horizon);
    }
    if (cfg_.crashesEnabled() && cfg_.crashMttr <= 0.0)
        QOSERVE_FATAL("crash MTTR must be positive, got ",
                      cfg_.crashMttr);
    if (cfg_.stragglersEnabled()) {
        if (cfg_.stragglerDuration <= 0.0)
            QOSERVE_FATAL("straggler duration must be positive, got ",
                          cfg_.stragglerDuration);
        if (cfg_.stragglerFactor < 1.0)
            QOSERVE_FATAL("straggler factor must be >= 1, got ",
                          cfg_.stragglerFactor);
    }

    const std::size_t n = cluster_.numReplicas();
    QOSERVE_ASSERT(n > 0, "fault injector attached before any "
                          "replica group was added");

    Rng root(cfg_.seed);
    downSince_.assign(n, kTimeNever);
    episodeEpoch_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        crashRng_.push_back(root.split("crash-" + std::to_string(i)));
        stragglerRng_.push_back(
            root.split("straggle-" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (cfg_.crashesEnabled())
            scheduleNextCrash(i);
        if (cfg_.stragglersEnabled())
            scheduleNextEpisode(i);
    }
}

void
FaultInjector::scheduleNextCrash(std::size_t i)
{
    SimTime when = cluster_.eventQueue().now() +
                   crashRng_[i].exponential(1.0 / cfg_.crashMtbf);
    if (when > cfg_.horizon)
        return; // Injection stops; the queue can drain.
    cluster_.eventQueue().schedule(when, [this, i]() { crash(i); });
}

void
FaultInjector::crash(std::size_t i)
{
    if (cluster_.replica(i).health() == ReplicaHealth::Down) {
        // A correlated zone outage (DomainInjector) beat this crash
        // to the replica. Skip the episode and redraw; unreachable
        // without a domain injector, so independent-fault runs are
        // byte-identical.
        scheduleNextCrash(i);
        return;
    }
    SimTime now = cluster_.eventQueue().now();
    if (TraceSink *sink = cluster_.traceSink()) {
        sink->emit({TraceEventKind::Crash, now, kNoTraceRequest,
                    static_cast<int>(i), 0, 0.0});
    }
    cluster_.replica(i).fail();
    ++stats_.crashes;
    downSince_[i] = now;

    // The repair is always delivered, even past the horizon: a
    // replica never stays down only because injection stopped.
    SimDuration repair =
        crashRng_[i].exponential(1.0 / cfg_.crashMttr);
    cluster_.eventQueue().scheduleAfter(
        repair, [this, i]() { recoverReplica(i); });
}

void
FaultInjector::recoverReplica(std::size_t i)
{
    SimTime now = cluster_.eventQueue().now();
    if (TraceSink *sink = cluster_.traceSink()) {
        sink->emit({TraceEventKind::Recover, now, kNoTraceRequest,
                    static_cast<int>(i), 0, 0.0});
    }
    cluster_.replica(i).recover();
    ++stats_.recoveries;
    stats_.downSeconds += now - downSince_[i];
    // Crashes are never injected past the horizon; repairs may land
    // beyond it, so clip each outage to [0, horizon].
    downClipped_ += std::min(now, cfg_.horizon) -
                    std::min(downSince_[i], cfg_.horizon);
    downSince_[i] = kTimeNever;
    scheduleNextCrash(i);
}

void
FaultInjector::scheduleNextEpisode(std::size_t i)
{
    SimTime when =
        cluster_.eventQueue().now() +
        stragglerRng_[i].exponential(1.0 / cfg_.stragglerMtbf);
    if (when > cfg_.horizon)
        return;
    cluster_.eventQueue().schedule(when,
                                   [this, i]() { startEpisode(i); });
}

void
FaultInjector::startEpisode(std::size_t i)
{
    if (cluster_.replica(i).health() == ReplicaHealth::Down) {
        // Crashed meanwhile: skip this episode, try again later.
        scheduleNextEpisode(i);
        return;
    }
    SimTime now = cluster_.eventQueue().now();
    if (TraceSink *sink = cluster_.traceSink()) {
        sink->emit({TraceEventKind::StragglerStart, now,
                    kNoTraceRequest, static_cast<int>(i), 0,
                    cfg_.stragglerFactor});
    }
    cluster_.replica(i).setSlowdown(cfg_.stragglerFactor);
    ++stats_.stragglerEpisodes;
    std::uint64_t epoch = ++episodeEpoch_[i];

    SimDuration duration =
        stragglerRng_[i].exponential(1.0 / cfg_.stragglerDuration);
    cluster_.eventQueue().scheduleAfter(
        duration, [this, i, epoch]() { endEpisode(i, epoch); });
}

void
FaultInjector::endEpisode(std::size_t i, std::uint64_t epoch)
{
    if (episodeEpoch_[i] != epoch)
        return; // Superseded by a newer episode.
    // A crash during the episode already cleared the slowdown (and
    // recovery restores full speed); only an intact Degraded replica
    // needs the factor removed here.
    if (cluster_.replica(i).health() == ReplicaHealth::Degraded) {
        if (TraceSink *sink = cluster_.traceSink()) {
            sink->emit({TraceEventKind::StragglerEnd,
                        cluster_.eventQueue().now(), kNoTraceRequest,
                        static_cast<int>(i), 0, 0.0});
        }
        cluster_.replica(i).setSlowdown(1.0);
    }
    scheduleNextEpisode(i);
}

double
FaultInjector::machineAvailability() const
{
    if (!cfg_.enabled() || cluster_.numReplicas() == 0)
        return 1.0;

    // Completed repairs accrued as they landed; outages still open
    // run to the horizon.
    double down = downClipped_;
    for (SimTime since : downSince_) {
        if (since != kTimeNever)
            down += cfg_.horizon - std::min(since, cfg_.horizon);
    }
    double total = cfg_.horizon.seconds() *
                   static_cast<double>(cluster_.numReplicas());
    return std::max(0.0, 1.0 - down / total);
}

} // namespace qoserve
