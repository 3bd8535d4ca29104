/**
 * @file
 * qoserve_sim — standalone simulator driver.
 *
 * Runs one serving experiment end-to-end from the command line:
 * synthesize (or replay) a workload, serve it under the chosen
 * policy and deployment, and print / export the results. The first
 * stderr line, "replay: <flags>", is the canonical flag line of the
 * run: rerunning it reproduces every output.
 *
 * Examples:
 *   qoserve_sim --policy qoserve --qps 4 --duration 1200
 *   qoserve_sim --policy edf --dataset sharegpt --replicas 2 \
 *       --records-out records.csv
 *   qoserve_sim --trace-in trace.csv --policy qoserve \
 *       --summary-out summary.csv
 */

#include <iostream>
#include <string>
#include <vector>

#include "app/cli_options.hh"
#include "app/qoserve.hh"

int
main(int argc, char **argv)
{
    using namespace qoserve;

    std::vector<std::string> args(argv + 1, argv + argc);
    CliOptions opts = parseCliOptions(args);
    if (opts.helpRequested) {
        std::cout << cliUsage();
        return 0;
    }

    // The flag line that reproduces this run, in canonical form.
    std::cerr << "replay: " << toFlagLine(opts) << "\n";

    RunHooks hooks;
    hooks.log = &std::cerr;
    ScenarioResult res =
        runScenario(opts, buildTrace(opts, &std::cerr), hooks);
    const ClusterSim &sim = *res.cluster;

    printSummary(res.summary, sim.tiers(), std::cout);
    if (res.faults && opts.fault.enabled()) {
        const FaultStats &fs = *res.faults;
        std::cout << "faults: " << fs.crashes << " crashes, "
                  << fs.stragglerEpisodes
                  << " straggler episodes, observed MTTR "
                  << fs.meanTimeToRepair()
                  << " s, machine availability "
                  << 100.0 * res.machineAvailability << "%\n";
        std::cout << "recovery: " << sim.redispatches()
                  << " re-dispatches, " << sim.retriesExhausted()
                  << " retry budgets exhausted\n";
    }
    if (res.faults && opts.domains.enabled()) {
        const FaultStats &ds = *res.faults;
        std::cout << "domains: " << ds.zoneOutages
                  << " zone outages (" << ds.replicasDowned
                  << " replicas downed, " << ds.zoneDownSeconds
                  << " zone-down s), " << ds.partitions
                  << " partitions\n";
    }
    if (opts.breaker.enabled()) {
        std::cout << "breaker: " << sim.breakerTrips()
                  << " trips (threshold "
                  << opts.breaker.failureThreshold << ", cooldown "
                  << opts.breaker.cooldown << " s)\n";
    }
    if (opts.deadlineCancel) {
        std::cout << "deadline cancel: " << sim.deadlineCancelled()
                  << " requests abandoned as provably late\n";
    }
    if (opts.brownout.enabled) {
        std::cout << "brownout: peak level " << res.brownoutMaxLevel
                  << " (" << brownoutModeName(static_cast<BrownoutMode>(
                                 res.brownoutMaxLevel))
                  << "), " << res.brownoutSteps << " steps, "
                  << sim.brownoutShed() << " shed, "
                  << sim.brownoutCapped() << " capped\n";
    }
    if (opts.serving.prefixCache.enabled) {
        PrefixCacheStats agg;
        for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
            const PrefixCacheStats &s =
                sim.replica(i).prefixCache().stats();
            agg.lookups += s.lookups;
            agg.hits += s.hits;
            agg.tokensAttached += s.tokensAttached;
            agg.cowCopies += s.cowCopies;
            agg.blocksInserted += s.blocksInserted;
            agg.blocksEvicted += s.blocksEvicted;
        }
        std::cout << "prefix cache: " << agg.hits << "/" << agg.lookups
                  << " lookups hit, " << agg.tokensAttached
                  << " prompt tokens reused, " << agg.cowCopies
                  << " COW copies\n";
        std::cout << "cache blocks: " << agg.blocksInserted
                  << " inserted, " << agg.blocksEvicted
                  << " evicted\n";
    }
    if (res.slo) {
        std::cout << "slo alerts: " << res.slo->alerts
                  << " episodes over " << res.slo->ticks
                  << " evaluations, " << res.slo->activeTiers
                  << " still active at drain\n";
    }
    return 0;
}
