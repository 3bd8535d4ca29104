/**
 * @file
 * Correlated failure domains: zone outages and control-plane
 * partitions (DESIGN.md §13).
 *
 * The independent per-replica fault model of FaultInjector misses the
 * failures that actually break serving fleets: a rack power event or
 * a bad rollout takes a *correlated* set of replicas down at once,
 * and a control-plane partition leaves the router alive but acting on
 * stale state for part of the fleet. DomainInjector adds both on the
 * same seeded-stream discipline — per-zone RNG streams split from one
 * root seed, so a domain schedule is a pure function of
 * (seed, config, replica count) and composes with an independent
 * FaultInjector without perturbing its draws.
 *
 * Zone outages fail every live replica of the zone in one simulation
 * instant (each crash hands its live requests to the cluster retry
 * path, exactly like an independent crash) and repair them together.
 * Partitions blind the cluster front door to a seeded subset of
 * replicas: routing sees a snapshot of their state taken at partition
 * start, so it keeps dispatching to replicas that may since have
 * died — those dispatches bounce into the retry path, which is what
 * the circuit breaker (CircuitBreakerConfig) exists to dampen.
 */

#ifndef QOSERVE_FAULT_FAILURE_DOMAINS_HH
#define QOSERVE_FAULT_FAILURE_DOMAINS_HH

#include <cstdint>
#include <vector>

#include "fault/fault_injector.hh"

namespace qoserve {

/**
 * Failure-domain configuration. Both episode kinds default off; with
 * both disabled the injector schedules nothing and a run is
 * bit-identical to one without it.
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

    /** Root seed of the domain schedule (independent of both the
     *  workload seed and the FaultInjector seed). */
    std::uint64_t seed = 7;

    /** No new episode starts after this time (required positive and
     *  finite when enabled); restores and heals are always
     *  delivered. */
    SimTime horizon;

    /** True when zone outages are enabled. */
    bool zoneOutagesEnabled() const { return zones > 0 && zoneMtbf > 0.0; }

    /** True when control-plane partitions are enabled. */
    bool partitionsEnabled() const { return partitionMtbf > 0.0; }

    /** True when the injector will schedule anything at all. */
    bool enabled() const
    {
        return zoneOutagesEnabled() || partitionsEnabled();
    }
};

/** Aggregate failure-domain statistics. */
struct DomainStats
{
    std::uint64_t zoneOutages = 0;
    std::uint64_t zoneRestores = 0;

    /** Replica crashes caused by zone outages (already-down replicas
     *  are not double-counted). */
    std::uint64_t replicasDowned = 0;

    std::uint64_t partitions = 0;
    std::uint64_t partitionHeals = 0;

    /** Total zone-outage time across completed restores, seconds. */
    SimDuration zoneDownSeconds = 0.0;
};

/**
 * Schedules correlated zone outages and control-plane partitions
 * against a ClusterSim.
 *
 * Construct after the cluster's replica groups exist and before
 * run(); must outlive the run. Composes with a FaultInjector on the
 * same cluster: an independent crash landing on a zone-downed replica
 * is skipped and redrawn, and a zone outage never re-fails an
 * independently crashed replica (nor claims its repair).
 */
class DomainInjector
{
  public:
    /**
     * @param cfg Episode rates, topology, seed and horizon. Fatal
     *        (user error) on a degenerate combination: enabled
     *        without a positive finite horizon, zones outside
     *        [1, numReplicas], non-positive repair times, or a
     *        partition fraction outside (0, 1].
     * @param cluster Target cluster; must already have its replicas.
     */
    DomainInjector(DomainConfig cfg, ClusterSim &cluster);

    DomainInjector(const DomainInjector &) = delete;
    DomainInjector &operator=(const DomainInjector &) = delete;

    /** Configuration. */
    const DomainConfig &config() const { return cfg_; }

    /** Aggregate statistics so far. */
    const DomainStats &stats() const { return stats_; }

    /** Zone of replica @p i (contiguous ranges). */
    int zoneOf(std::size_t i) const { return zoneOf_[i]; }

  private:
    void scheduleNextOutage(int z);
    void startOutage(int z);
    void endOutage(int z);
    void scheduleNextPartition();
    void startPartition();
    void endPartition();

    DomainConfig cfg_;
    ClusterSim &cluster_;

    /** Replica index -> zone id (filled once at construction). */
    std::vector<int> zoneOf_;

    /** Independent per-zone streams plus one partition stream. */
    std::vector<Rng> zoneRng_;
    Rng partitionRng_;

    /** Replicas each active outage downed (restored together; an
     *  already-down replica is never claimed). */
    std::vector<std::vector<std::size_t>> downedByZone_;

    /** Replicas blinded by the active partition (one at a time). */
    std::vector<std::size_t> blinded_;

    std::vector<SimTime> outageSince_;
    DomainStats stats_;
};

} // namespace qoserve

#endif // QOSERVE_FAULT_FAILURE_DOMAINS_HH
