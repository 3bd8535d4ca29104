/**
 * @file
 * Deterministic fault injection for cluster simulations (DESIGN.md §8
 * and §13).
 *
 * One injector schedules every fault kind on the simulation's event
 * queue: independent per-replica crash/restart cycles and straggler
 * (latency slowdown) episodes, correlated zone outages that fail a
 * contiguous range of replicas in one instant and restore them
 * together, and control-plane partitions that blind the cluster front
 * door to a seeded subset of replicas. Each schedule is drawn from its
 * own RNG stream split from a root seed, so a fault schedule is a pure
 * function of (seeds, configs, replica count) — rerunning the same
 * experiment replays the same failures, which is what makes recovery
 * behaviour testable bit-for-bit.
 *
 * Gap and duration draws are exponential, the standard memoryless
 * failure model (MTBF / MTTR). Injection of *new* episodes stops at
 * the horizon, the trace's last arrival, so the simulation always
 * drains; repairs, restores and heals are always delivered (a replica
 * never stays down forever just because the horizon passed).
 */

#ifndef QOSERVE_FAULT_FAULT_INJECTOR_HH
#define QOSERVE_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "cluster/cluster.hh"
#include "obs/trace_event.hh"
#include "simcore/rng.hh"

namespace qoserve {

/**
 * Independent per-replica faults. Rates of 0 disable the respective
 * episode kind; with both disabled nothing of this kind is scheduled.
 */
struct FaultConfig
{
    /** Mean time between crashes per replica, seconds (0 = off). */
    double crashMtbf = 0.0;

    /** Mean time to repair a crashed replica, seconds. */
    double crashMttr = 20.0;

    /** Mean time between straggler episodes per replica, seconds
     *  (0 = off). */
    double stragglerMtbf = 0.0;

    /** Mean straggler episode duration, seconds. */
    double stragglerDuration = 10.0;

    /** Latency multiplier while straggling (> 1). */
    double stragglerFactor = 2.0;

    /** Root seed of the crash and straggler schedules (independent
     *  of the workload seed, so faults can vary while the trace stays
     *  fixed). */
    std::uint64_t seed = 1;

    /** True when crash episodes are enabled. */
    bool crashesEnabled() const { return crashMtbf > 0.0; }

    /** True when straggler episodes are enabled. */
    bool stragglersEnabled() const { return stragglerMtbf > 0.0; }

    /** True when any independent episode kind is enabled. */
    bool enabled() const
    {
        return crashesEnabled() || stragglersEnabled();
    }
};

/**
 * Correlated failure domains. Both episode kinds default off; with
 * both disabled nothing of this kind is scheduled.
 */
struct DomainConfig
{
    /**
     * Number of zones the replicas are partitioned into (contiguous
     * index ranges, as even as possible). 0 means no zone topology;
     * required in [1, numReplicas] when zone outages are enabled.
     */
    int zones = 0;

    /** Mean time between outages per zone, seconds (0 = off). */
    double zoneMtbf = 0.0;

    /** Mean time to restore a failed zone, seconds. */
    double zoneMttr = 30.0;

    /** Mean time between control-plane partitions, seconds
     *  (0 = off). */
    double partitionMtbf = 0.0;

    /** Mean partition duration before the view heals, seconds. */
    double partitionMttr = 10.0;

    /** Fraction of replicas blinded per partition, in (0, 1];
     *  at least one replica is always blinded. */
    double partitionFrac = 0.25;

    /** Root seed of the zone and partition schedules (independent of
     *  both the workload seed and FaultConfig::seed). */
    std::uint64_t seed = 7;

    /** True when zone outages are enabled. */
    bool zoneOutagesEnabled() const { return zones > 0 && zoneMtbf > 0.0; }

    /** True when control-plane partitions are enabled. */
    bool partitionsEnabled() const { return partitionMtbf > 0.0; }

    /** True when any domain episode kind is enabled. */
    bool enabled() const
    {
        return zoneOutagesEnabled() || partitionsEnabled();
    }
};

/** Aggregate fault statistics. */
struct FaultStats
{
    /** Independent crashes and their completed repairs. */
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t stragglerEpisodes = 0;

    /** Total independent-outage time across completed repairs,
     *  seconds. */
    SimDuration downSeconds = 0.0;

    std::uint64_t zoneOutages = 0;
    std::uint64_t zoneRestores = 0;

    /** Replica crashes caused by zone outages (already-down replicas
     *  are not double-counted). */
    std::uint64_t replicasDowned = 0;

    /** Total zone-outage time across completed restores, seconds. */
    SimDuration zoneDownSeconds = 0.0;

    std::uint64_t partitions = 0;
    std::uint64_t partitionHeals = 0;

    /** Mean time to repair an independent crash (MTTR). */
    double
    meanTimeToRepair() const
    {
        return recoveries == 0
                   ? 0.0
                   : downSeconds / static_cast<double>(recoveries);
    }
};

/**
 * Schedules every fault kind against a ClusterSim.
 *
 * Construct after the cluster's replica groups exist and before
 * run(); the injector must outlive the run (its callbacks reference
 * it from the event queue). The kinds compose: an independent crash
 * landing on a zone-downed replica is skipped and redrawn, and a zone
 * outage never re-fails an independently crashed replica (nor claims
 * its repair). With every kind disabled it schedules nothing and a
 * run is bit-identical to one without an injector.
 */
class FaultInjector
{
  public:
    /**
     * Schedules the first episode of each enabled kind, in this
     * order: crash then straggler for each replica in turn, then each
     * zone's outage, then the first partition.
     *
     * @param faults Independent crash and straggler episodes.
     * @param domains Zone outages and partitions.
     * @param cluster Target cluster; must already have its replicas.
     *        Its last arrival is the horizon: an empty trace schedules
     *        nothing.
     *
     * Fatal (user error) on a degenerate enabled kind: non-positive
     * repair, restore, heal or straggler durations, a straggler
     * factor below 1, more zones than replicas, or a partition
     * fraction outside (0, 1].
     */
    FaultInjector(const FaultConfig &faults, const DomainConfig &domains,
                  ClusterSim &cluster);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Aggregate statistics so far. */
    const FaultStats &stats() const { return stats_; }

    /** Zone of replica @p i: zone z owns the contiguous replica
     *  range [z*n/zones, (z+1)*n/zones). */
    int zoneOf(std::size_t i) const;

    /**
     * Fraction of replica-seconds the machines were up over
     * [0, horizon] (an infrastructure metric: independent and zone
     * crashes, not stragglers; request-level availability lives in
     * RunSummary).
     */
    double machineAvailability() const;

  private:
    /** Why a replica is down: the arg of its Crash/Recover events. */
    enum Cause : int { kIndependent = 0, kZone = 1 };

    /** One replica's entry in the down-time ledger. */
    struct Outage
    {
        SimTime since = kTimeNever; ///< kTimeNever while up
        Cause cause = kIndependent;
    };

    /** Schedule @p fire after an Exp(mean @p mean) gap drawn from
     *  @p rng, unless that lands past the horizon. */
    void scheduleAfterGap(Rng &rng, double mean, EventFn fire);

    /** Emit one injector event at the current time, when traced. */
    void trace(TraceEventKind kind, int replica, std::int64_t arg,
               double value = 0.0);

    /** The one down path and the one up path of every replica
     *  outage; bringUp() returns the outage's length. */
    void takeDown(std::size_t i, Cause cause);
    SimDuration bringUp(std::size_t i, Cause cause);

    /** First replica of zone @p z. */
    std::size_t zoneBegin(std::size_t z) const;

    void scheduleNextCrash(std::size_t i);
    void crash(std::size_t i);
    void scheduleNextEpisode(std::size_t i);
    void startEpisode(std::size_t i);
    void endEpisode(std::size_t i, std::uint64_t epoch);
    void scheduleNextOutage(std::size_t z);
    void startOutage(std::size_t z);
    void endOutage(std::size_t z, SimTime since);
    void scheduleNextPartition();
    void startPartition();
    void endPartition();

    FaultConfig faults_;
    DomainConfig domains_;
    ClusterSim &cluster_;

    /** No new episode starts after this time: the last arrival. */
    SimTime horizon_;

    /** Independent per-replica and per-zone streams plus one
     *  partition stream: adding draws to one schedule never perturbs
     *  another's. */
    std::vector<Rng> crashRng_;
    std::vector<Rng> stragglerRng_;
    std::vector<Rng> zoneRng_;
    Rng partitionRng_;

    /** Guards stale StragglerEnd events after a crash interleaved
     *  with an episode. */
    std::vector<std::uint64_t> episodeEpoch_;

    /** Replicas blinded by the active partition (one at a time). */
    std::vector<std::size_t> blinded_;

    /** The down-time ledger: one entry per replica, plus the outage
     *  time inside [0, horizon] of every completed repair, added as
     *  it lands. */
    std::vector<Outage> outages_;
    double downClipped_ = 0.0;

    FaultStats stats_;
};

} // namespace qoserve

#endif // QOSERVE_FAULT_FAULT_INJECTOR_HH
