/**
 * @file
 * Failure-domain injector implementation.
 */

#include "fault/failure_domains.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/trace_sink.hh"
#include "simcore/logging.hh"

namespace qoserve {

DomainInjector::DomainInjector(DomainConfig cfg, ClusterSim &cluster)
    : cfg_(cfg), cluster_(cluster), partitionRng_(0)
{
    if (!cfg_.enabled())
        return; // Zero events scheduled: zero cost when off.

    if (!(cfg_.horizon > SimTime{}) ||
        !std::isfinite(cfg_.horizon.seconds())) {
        QOSERVE_FATAL("failure domains need a positive finite "
                      "horizon, got ",
                      cfg_.horizon);
    }
    const std::size_t n = cluster_.numReplicas();
    QOSERVE_ASSERT(n > 0, "domain injector attached before any "
                          "replica group was added");
    if (cfg_.zoneOutagesEnabled()) {
        if (cfg_.zones > static_cast<int>(n))
            QOSERVE_FATAL("more zones (", cfg_.zones,
                          ") than replicas (", n, ")");
        if (cfg_.zoneMttr <= 0.0)
            QOSERVE_FATAL("zone MTTR must be positive, got ",
                          cfg_.zoneMttr);
    }
    if (cfg_.partitionsEnabled()) {
        if (cfg_.partitionMttr <= 0.0)
            QOSERVE_FATAL("partition MTTR must be positive, got ",
                          cfg_.partitionMttr);
        if (!(cfg_.partitionFrac > 0.0) || cfg_.partitionFrac > 1.0)
            QOSERVE_FATAL("partition fraction must be in (0, 1], "
                          "got ",
                          cfg_.partitionFrac);
    }

    // Contiguous zone ranges, as even as possible: zone z owns
    // [z*n/zones, (z+1)*n/zones).
    const int zones = std::max(cfg_.zones, 0);
    zoneOf_.assign(n, 0);
    for (int z = 0; z < zones; ++z) {
        std::size_t lo = static_cast<std::size_t>(z) * n /
                         static_cast<std::size_t>(zones);
        std::size_t hi = (static_cast<std::size_t>(z) + 1) * n /
                         static_cast<std::size_t>(zones);
        for (std::size_t i = lo; i < hi; ++i)
            zoneOf_[i] = z;
    }

    Rng root(cfg_.seed);
    partitionRng_ = root.split("partition");
    if (cfg_.zoneOutagesEnabled()) {
        downedByZone_.resize(static_cast<std::size_t>(zones));
        outageSince_.assign(static_cast<std::size_t>(zones),
                            kTimeNever);
        for (int z = 0; z < zones; ++z)
            zoneRng_.push_back(
                root.split("zone-" + std::to_string(z)));
        for (int z = 0; z < zones; ++z)
            scheduleNextOutage(z);
    }
    if (cfg_.partitionsEnabled())
        scheduleNextPartition();
}

void
DomainInjector::scheduleNextOutage(int z)
{
    SimTime when =
        cluster_.eventQueue().now() +
        zoneRng_[static_cast<std::size_t>(z)].exponential(
            1.0 / cfg_.zoneMtbf);
    if (when > cfg_.horizon)
        return; // Injection stops; the queue can drain.
    cluster_.eventQueue().schedule(when,
                                   [this, z]() { startOutage(z); });
}

void
DomainInjector::startOutage(int z)
{
    SimTime now = cluster_.eventQueue().now();
    ++stats_.zoneOutages;
    outageSince_[static_cast<std::size_t>(z)] = now;
    if (TraceSink *sink = cluster_.traceSink()) {
        sink->emit({TraceEventKind::ZoneOutage, now, kNoTraceRequest,
                    -1, z, 0.0});
    }

    // Fail every live replica of the zone in one instant — the
    // correlated event the independent model cannot produce. A
    // replica already crashed by an independent fault keeps its own
    // repair schedule and is not claimed by this outage. The
    // per-replica Crash events keep every downstream consumer (the
    // timeline and Perfetto exporters) correct without special
    // cases; arg = 1 marks them zone-correlated.
    auto &downed = downedByZone_[static_cast<std::size_t>(z)];
    for (std::size_t i = 0; i < cluster_.numReplicas(); ++i) {
        if (zoneOf_[i] != z ||
            cluster_.replica(i).health() == ReplicaHealth::Down)
            continue;
        if (TraceSink *sink = cluster_.traceSink()) {
            sink->emit({TraceEventKind::Crash, now, kNoTraceRequest,
                        static_cast<int>(i), 1, 0.0});
        }
        cluster_.replica(i).fail();
        downed.push_back(i);
        ++stats_.replicasDowned;
    }

    // The restore is always delivered, even past the horizon.
    SimDuration repair =
        zoneRng_[static_cast<std::size_t>(z)].exponential(
            1.0 / cfg_.zoneMttr);
    cluster_.eventQueue().scheduleAfter(repair,
                                        [this, z]() { endOutage(z); });
}

void
DomainInjector::endOutage(int z)
{
    SimTime now = cluster_.eventQueue().now();
    auto &downed = downedByZone_[static_cast<std::size_t>(z)];
    for (std::size_t i : downed) {
        if (cluster_.replica(i).health() != ReplicaHealth::Down)
            continue; // Defensive: nobody else repairs our crashes.
        if (TraceSink *sink = cluster_.traceSink()) {
            sink->emit({TraceEventKind::Recover, now, kNoTraceRequest,
                        static_cast<int>(i), 1, 0.0});
        }
        cluster_.replica(i).recover();
    }
    downed.clear();
    ++stats_.zoneRestores;
    stats_.zoneDownSeconds +=
        now - outageSince_[static_cast<std::size_t>(z)];
    outageSince_[static_cast<std::size_t>(z)] = kTimeNever;
    if (TraceSink *sink = cluster_.traceSink()) {
        sink->emit({TraceEventKind::ZoneRestore, now, kNoTraceRequest,
                    -1, z, 0.0});
    }
    scheduleNextOutage(z);
}

void
DomainInjector::scheduleNextPartition()
{
    SimTime when = cluster_.eventQueue().now() +
                   partitionRng_.exponential(1.0 / cfg_.partitionMtbf);
    if (when > cfg_.horizon)
        return;
    cluster_.eventQueue().schedule(when,
                                   [this]() { startPartition(); });
}

void
DomainInjector::startPartition()
{
    SimTime now = cluster_.eventQueue().now();
    const std::size_t n = cluster_.numReplicas();
    std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(cfg_.partitionFrac *
                                    static_cast<double>(n)));
    k = std::min(k, n);

    // Seeded partial Fisher-Yates: the first k slots of a shuffled
    // index array are the blinded set. Draw count depends only on k,
    // so the schedule stays a pure function of the config.
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
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
    if (TraceSink *sink = cluster_.traceSink()) {
        sink->emit({TraceEventKind::PartitionStart, now,
                    kNoTraceRequest, -1,
                    static_cast<std::int64_t>(k), 0.0});
    }

    // The heal is always delivered; partitions never overlap (the
    // next one is drawn only after this one heals).
    SimDuration heal =
        partitionRng_.exponential(1.0 / cfg_.partitionMttr);
    cluster_.eventQueue().scheduleAfter(
        heal, [this]() { endPartition(); });
}

void
DomainInjector::endPartition()
{
    SimTime now = cluster_.eventQueue().now();
    for (std::size_t i : blinded_)
        cluster_.unblindReplica(i);
    blinded_.clear();
    ++stats_.partitionHeals;
    if (TraceSink *sink = cluster_.traceSink()) {
        sink->emit({TraceEventKind::PartitionEnd, now, kNoTraceRequest,
                    -1, 0, 0.0});
    }
    scheduleNextPartition();
}

} // namespace qoserve
