/**
 * @file
 * Deterministic fault injection for cluster simulations.
 *
 * The injector schedules replica crash/restart cycles and straggler
 * (latency slowdown) episodes on the simulation's event queue. Every
 * episode is drawn from seeded per-replica RNG streams, so a fault
 * schedule is a pure function of (seed, config, replica count) —
 * rerunning the same experiment replays the same failures, which is
 * what makes recovery behaviour testable bit-for-bit (DESIGN.md §8).
 *
 * Gap and duration draws are exponential, the standard memoryless
 * failure model (MTBF / MTTR); injection of *new* episodes stops at
 * the configured horizon so the simulation always drains, while
 * recoveries are always delivered (a replica never stays down
 * forever just because the horizon passed).
 */

#ifndef QOSERVE_FAULT_FAULT_INJECTOR_HH
#define QOSERVE_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "cluster/cluster.hh"
#include "simcore/rng.hh"

namespace qoserve {

/**
 * Fault-injection configuration. Rates of 0 disable the respective
 * episode kind; with both disabled the injector schedules nothing
 * and a run is bit-identical to one without an injector.
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

    /** Root seed of the fault schedule (independent of the workload
     *  seed, so faults can vary while the trace stays fixed). */
    std::uint64_t seed = 1;

    /**
     * No new episode starts after this time (required positive and
     * finite when any episode kind is enabled — without a horizon
     * the event queue would never drain).
     */
    SimTime horizon;

    /** True when crash episodes are enabled. */
    bool crashesEnabled() const { return crashMtbf > 0.0; }

    /** True when straggler episodes are enabled. */
    bool stragglersEnabled() const { return stragglerMtbf > 0.0; }

    /** True when the injector will schedule anything at all. */
    bool enabled() const
    {
        return crashesEnabled() || stragglersEnabled();
    }
};

/** Aggregate fault statistics. */
struct FaultStats
{
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t stragglerEpisodes = 0;

    /** Total outage time across completed repairs, seconds. */
    SimDuration downSeconds = 0.0;

    /** Mean time to repair across completed repairs (MTTR). */
    double
    meanTimeToRepair() const
    {
        return recoveries == 0
                   ? 0.0
                   : downSeconds / static_cast<double>(recoveries);
    }
};

/**
 * Schedules fault episodes against a ClusterSim.
 *
 * Construct after the cluster's replica groups exist and before
 * run(); the injector must outlive the run (its callbacks reference
 * it from the event queue).
 */
class FaultInjector
{
  public:
    /**
     * @param cfg Episode rates, seed and horizon. Fatal (user error)
     *        when enabled without a positive finite horizon or with
     *        non-positive repair/duration parameters.
     * @param cluster Target cluster; must already have its replicas.
     */
    FaultInjector(FaultConfig cfg, ClusterSim &cluster);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Configuration. */
    const FaultConfig &config() const { return cfg_; }

    /** Aggregate statistics so far. */
    const FaultStats &stats() const { return stats_; }

    /**
     * Fraction of replica-seconds the machines were up over
     * [0, horizon] (an infrastructure metric: crashes only, not
     * stragglers; request-level availability lives in RunSummary).
     */
    double machineAvailability() const;

  private:
    void scheduleNextCrash(std::size_t i);
    void crash(std::size_t i);
    void recoverReplica(std::size_t i);
    void scheduleNextEpisode(std::size_t i);
    void startEpisode(std::size_t i);
    void endEpisode(std::size_t i, std::uint64_t epoch);

    FaultConfig cfg_;
    ClusterSim &cluster_;

    /** Independent per-replica streams: adding draws to one replica's
     *  schedule never perturbs another's. */
    std::vector<Rng> crashRng_;
    std::vector<Rng> stragglerRng_;

    /** Guards stale StragglerEnd events after a crash interleaved
     *  with an episode. */
    std::vector<std::uint64_t> episodeEpoch_;

    /** Crash time of each replica still down; kTimeNever when up. */
    std::vector<SimTime> downSince_;

    /** Outage time inside [0, horizon] of every completed repair,
     *  added as each repair lands. */
    double downClipped_ = 0.0;
    FaultStats stats_;
};

} // namespace qoserve

#endif // QOSERVE_FAULT_FAULT_INJECTOR_HH
