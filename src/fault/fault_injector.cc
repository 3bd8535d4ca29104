/**
 * @file
 * Fault injector implementation.
 */

#include "fault/fault_injector.hh"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "obs/trace_sink.hh"
#include "simcore/logging.hh"

namespace qoserve {

FaultInjector::FaultInjector(const FaultConfig &faults,
                             const DomainConfig &domains,
                             ClusterSim &cluster)
    : faults_(faults), domains_(domains), cluster_(cluster),
      horizon_(cluster.lastArrival()), partitionRng_(0)
{
    if (!faults_.enabled() && !domains_.enabled())
        return; // Zero events scheduled: zero cost when off.

    // Configuration comes from flags/benches: bad values are user
    // errors, like BlockManager's capacity validation.
    auto requirePositive = [](bool on, double value, const char *what) {
        if (on && value <= 0.0)
            QOSERVE_FATAL(what, " must be positive, got ", value);
    };
    requirePositive(faults_.crashesEnabled(), faults_.crashMttr,
                    "crash MTTR");
    requirePositive(faults_.stragglersEnabled(),
                    faults_.stragglerDuration, "straggler duration");
    requirePositive(domains_.zoneOutagesEnabled(), domains_.zoneMttr,
                    "zone MTTR");
    requirePositive(domains_.partitionsEnabled(), domains_.partitionMttr,
                    "partition MTTR");
    if (faults_.stragglersEnabled() && faults_.stragglerFactor < 1.0)
        QOSERVE_FATAL("straggler factor must be >= 1, got ",
                      faults_.stragglerFactor);
    const std::size_t n = cluster_.numReplicas();
    QOSERVE_ASSERT(n > 0, "fault injector attached before any "
                          "replica group was added");
    if (domains_.zoneOutagesEnabled() &&
        domains_.zones > static_cast<int>(n))
        QOSERVE_FATAL("more zones (", domains_.zones, ") than replicas (",
                      n, ")");
    if (domains_.partitionsEnabled() &&
        (!(domains_.partitionFrac > 0.0) || domains_.partitionFrac > 1.0))
        QOSERVE_FATAL("partition fraction must be in (0, 1], got ",
                      domains_.partitionFrac);

    // Rng::split is const, so only the order the first episodes are
    // scheduled in matters: events at equal times fire in scheduling
    // order.
    Rng faultRoot(faults_.seed);
    Rng domainRoot(domains_.seed);
    for (std::size_t i = 0; i < n; ++i) {
        crashRng_.push_back(
            faultRoot.split("crash-" + std::to_string(i)));
        stragglerRng_.push_back(
            faultRoot.split("straggle-" + std::to_string(i)));
    }
    const auto zones =
        static_cast<std::size_t>(std::max(domains_.zones, 0));
    for (std::size_t z = 0; z < zones; ++z)
        zoneRng_.push_back(domainRoot.split("zone-" + std::to_string(z)));
    partitionRng_ = domainRoot.split("partition");
    episodeEpoch_.assign(n, 0);
    outages_.assign(n, Outage{});

    for (std::size_t i = 0; i < n; ++i) {
        if (faults_.crashesEnabled())
            scheduleNextCrash(i);
        if (faults_.stragglersEnabled())
            scheduleNextEpisode(i);
    }
    if (domains_.zoneOutagesEnabled()) {
        for (std::size_t z = 0; z < zones; ++z)
            scheduleNextOutage(z);
    }
    if (domains_.partitionsEnabled())
        scheduleNextPartition();
}

void
FaultInjector::scheduleAfterGap(Rng &rng, double mean, EventFn fire)
{
    SimTime when =
        cluster_.eventQueue().now() + rng.exponential(1.0 / mean);
    if (when > horizon_)
        return; // Injection stops; the queue can drain.
    cluster_.eventQueue().schedule(when, std::move(fire));
}

void
FaultInjector::trace(TraceEventKind kind, int replica, std::int64_t arg,
                     double value)
{
    if (TraceSink *sink = cluster_.traceSink()) {
        sink->emit({kind, cluster_.eventQueue().now(), kNoTraceRequest,
                    replica, arg, value});
    }
}

void
FaultInjector::takeDown(std::size_t i, Cause cause)
{
    trace(TraceEventKind::Crash, static_cast<int>(i), cause);
    cluster_.replica(i).fail();
    outages_[i] = {cluster_.eventQueue().now(), cause};
}

SimDuration
FaultInjector::bringUp(std::size_t i, Cause cause)
{
    Outage &out = outages_[i];
    QOSERVE_ASSERT(out.since != kTimeNever && out.cause == cause &&
                       cluster_.replica(i).health() == ReplicaHealth::Down,
                   "replica ", i, " is not down by cause ", cause);
    SimTime now = cluster_.eventQueue().now();
    trace(TraceEventKind::Recover, static_cast<int>(i), cause);
    cluster_.replica(i).recover();
    // Outages never start past the horizon; repairs may land beyond
    // it, so clip each outage to [0, horizon].
    downClipped_ += std::min(now, horizon_) - std::min(out.since, horizon_);
    SimDuration down = now - out.since;
    out.since = kTimeNever;
    return down;
}

std::size_t
FaultInjector::zoneBegin(std::size_t z) const
{
    return z * cluster_.numReplicas() /
           static_cast<std::size_t>(domains_.zones);
}

int
FaultInjector::zoneOf(std::size_t i) const
{
    // The largest z with zoneBegin(z) <= i.
    const auto zones = static_cast<std::size_t>(domains_.zones);
    return zones == 0 ? 0
                      : static_cast<int>(((i + 1) * zones - 1) /
                                         cluster_.numReplicas());
}

void
FaultInjector::scheduleNextCrash(std::size_t i)
{
    scheduleAfterGap(crashRng_[i], faults_.crashMtbf,
                     [this, i]() { crash(i); });
}

void
FaultInjector::crash(std::size_t i)
{
    if (cluster_.replica(i).health() == ReplicaHealth::Down) {
        // A zone outage beat this crash to the replica: skip the
        // episode and redraw.
        scheduleNextCrash(i);
        return;
    }
    takeDown(i, kIndependent);
    ++stats_.crashes;

    // The repair is always delivered, even past the horizon: a
    // replica never stays down only because injection stopped.
    SimDuration repairIn =
        crashRng_[i].exponential(1.0 / faults_.crashMttr);
    cluster_.eventQueue().scheduleAfter(repairIn, [this, i]() {
        stats_.downSeconds += bringUp(i, kIndependent);
        ++stats_.recoveries;
        scheduleNextCrash(i);
    });
}

void
FaultInjector::scheduleNextEpisode(std::size_t i)
{
    scheduleAfterGap(stragglerRng_[i], faults_.stragglerMtbf,
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
    trace(TraceEventKind::StragglerStart, static_cast<int>(i), 0,
          faults_.stragglerFactor);
    cluster_.replica(i).setSlowdown(faults_.stragglerFactor);
    ++stats_.stragglerEpisodes;
    std::uint64_t epoch = ++episodeEpoch_[i];

    SimDuration duration =
        stragglerRng_[i].exponential(1.0 / faults_.stragglerDuration);
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
        trace(TraceEventKind::StragglerEnd, static_cast<int>(i), 0);
        cluster_.replica(i).setSlowdown(1.0);
    }
    scheduleNextEpisode(i);
}

void
FaultInjector::scheduleNextOutage(std::size_t z)
{
    scheduleAfterGap(zoneRng_[z], domains_.zoneMtbf,
                     [this, z]() { startOutage(z); });
}

void
FaultInjector::startOutage(std::size_t z)
{
    ++stats_.zoneOutages;
    trace(TraceEventKind::ZoneOutage, -1, static_cast<std::int64_t>(z));

    // Fail every live replica of the zone in one instant — the
    // correlated event the independent model cannot produce. A
    // replica already crashed independently keeps its own repair
    // schedule and is not claimed by this outage. The per-replica
    // Crash events keep every downstream consumer (the timeline and
    // Perfetto exporters) correct without special cases; arg = 1
    // marks them zone-correlated.
    for (std::size_t i = zoneBegin(z); i < zoneBegin(z + 1); ++i) {
        if (cluster_.replica(i).health() == ReplicaHealth::Down)
            continue;
        takeDown(i, kZone);
        ++stats_.replicasDowned;
    }

    // The restore is always delivered, even past the horizon.
    SimDuration restoreIn =
        zoneRng_[z].exponential(1.0 / domains_.zoneMttr);
    cluster_.eventQueue().scheduleAfter(
        restoreIn,
        [this, z, since = cluster_.eventQueue().now()]() {
            endOutage(z, since);
        });
}

void
FaultInjector::endOutage(std::size_t z, SimTime since)
{
    // Independent crashes skip a down replica, so every replica the
    // outage claimed is still down by it; bringUp() asserts so.
    for (std::size_t i = zoneBegin(z); i < zoneBegin(z + 1); ++i) {
        const Outage &out = outages_[i];
        if (out.since != kTimeNever && out.cause == kZone)
            bringUp(i, kZone);
    }
    ++stats_.zoneRestores;
    stats_.zoneDownSeconds += cluster_.eventQueue().now() - since;
    trace(TraceEventKind::ZoneRestore, -1, static_cast<std::int64_t>(z));
    scheduleNextOutage(z);
}

void
FaultInjector::scheduleNextPartition()
{
    scheduleAfterGap(partitionRng_, domains_.partitionMtbf,
                     [this]() { startPartition(); });
}

void
FaultInjector::startPartition()
{
    const std::size_t n = cluster_.numReplicas();
    std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(domains_.partitionFrac *
                                    static_cast<double>(n)));
    k = std::min(k, n);

    // Seeded partial Fisher-Yates: the first k slots of a shuffled
    // index array are the blinded set. Draw count depends only on k,
    // so the schedule stays a pure function of the config.
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t j = static_cast<std::size_t>(
            partitionRng_.uniformInt(static_cast<std::int64_t>(i),
                                     static_cast<std::int64_t>(n - 1)));
        std::swap(idx[i], idx[j]);
    }
    blinded_.assign(idx.begin(), idx.begin() + static_cast<long>(k));
    std::sort(blinded_.begin(), blinded_.end());
    for (std::size_t i : blinded_)
        cluster_.blindReplica(i);

    ++stats_.partitions;
    trace(TraceEventKind::PartitionStart, -1,
          static_cast<std::int64_t>(k));

    // The heal is always delivered; partitions never overlap (the
    // next one is drawn only after this one heals).
    SimDuration heal =
        partitionRng_.exponential(1.0 / domains_.partitionMttr);
    cluster_.eventQueue().scheduleAfter(heal,
                                        [this]() { endPartition(); });
}

void
FaultInjector::endPartition()
{
    for (std::size_t i : blinded_)
        cluster_.unblindReplica(i);
    blinded_.clear();
    ++stats_.partitionHeals;
    trace(TraceEventKind::PartitionEnd, -1, 0);
    scheduleNextPartition();
}

double
FaultInjector::machineAvailability() const
{
    if (outages_.empty() || !(horizon_ > SimTime{}))
        return 1.0;

    // Completed repairs accrued as they landed; outages still open
    // run to the horizon.
    double down = downClipped_;
    for (const Outage &out : outages_) {
        if (out.since != kTimeNever)
            down += horizon_ - std::min(out.since, horizon_);
    }
    double total = horizon_.seconds() *
                   static_cast<double>(cluster_.numReplicas());
    return std::max(0.0, 1.0 - down / total);
}

} // namespace qoserve
