/**
 * @file
 * Extension: simulator scalability sweep (hot-path architecture).
 *
 * Not a paper figure — this bench validates the simulator's own
 * kernel: it sweeps cluster size and trace length up to hundreds of
 * replicas and millions of requests and reports the wall-clock cost
 * per kernel event. With the arena-backed event queue, pooled request
 * records and memoised chunk-budget solver, per-event cost should
 * stay flat as the sweep grows; a superlinear trend is a hot-path
 * regression (see DESIGN.md §11).
 *
 * Records are streamed out of the collector (retention off), so
 * memory stays flat in the trace length; the trace itself is the only
 * O(requests) allocation.
 *
 * Each point's wall time covers the simulation alone: the clock starts
 * once the cluster is assembled, just before it runs, so trace
 * synthesis and cluster set-up are not counted. With retention off
 * the post-run summary has no records to read.
 *
 * Extra flag (before the common ones): --smoke runs only the two
 * smallest points — CI uses it to byte-compare --jobs 1 vs 4 and to
 * bound suite time.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

struct ScalePoint
{
    Policy policy = Policy::QoServe;
    int replicas = 1;
    std::size_t requests = 0;
};

struct ScaleResult
{
    std::size_t completed = 0;
    std::uint64_t events = 0;
    double simSeconds = 0.0;
    double wallSeconds = 0.0;
};

/** Per-replica offered load; the cluster QPS scales with replicas so
 *  every point runs at the same utilization. */
constexpr double kQpsPerReplica = 2.0;

ScaleResult
runPoint(const ScalePoint &pt)
{
    Scenario sc;
    sc.serving.policy = pt.policy;
    sc.serving.numReplicas = pt.replicas;
    sc.qps = kQpsPerReplica * pt.replicas;
    sc.requestCount = pt.requests;
    sc.seed = 7;

    // Millions of records would dominate memory; stream-discard them
    // and keep only the counters.
    std::optional<bench::WallTimer> timer;
    ScenarioResult out =
        bench::simulate(sc, buildTrace(sc), [&timer](ClusterSim &sim) {
            sim.metricsCollector().setRetainRecords(false);
            timer.emplace();
        });
    const double wall_seconds = timer->seconds();
    ClusterSim &sim = *out.cluster;

    ScaleResult res;
    res.completed = sim.metrics().totalRecorded();
    res.events = sim.eventQueue().firedEvents();
    res.simSeconds = sim.eventQueue().now().seconds();
    res.wallSeconds = wall_seconds;
    return res;
}

void
run(const bench::BenchOptions &opts, bool smoke)
{
    bench::printBanner("Simulator scalability: per-event cost vs scale",
                       "no figure — kernel hot-path validation");

    const Policy policies[] = {Policy::SarathiFcfs, Policy::QoServe};
    struct Scale
    {
        int replicas;
        std::size_t requests;
    };
    const Scale full[] = {
        {1, 20000}, {8, 160000}, {64, 640000}, {256, 1280000}};
    const Scale small[] = {{1, 2000}, {4, 8000}};

    const Scale *scales = smoke ? small : full;
    const std::size_t num_scales =
        smoke ? std::size(small) : std::size(full);

    std::vector<ScalePoint> points;
    for (Policy policy : policies) {
        for (std::size_t s = 0; s < num_scales; ++s) {
            ScalePoint pt;
            pt.policy = policy;
            pt.replicas = scales[s].replicas;
            pt.requests = scales[s].requests;
            points.push_back(pt);
        }
    }

    // Pre-train the forest predictor outside the timed region (and
    // outside the fan-out, so workers never serialize on it).
    bench::PredictorCache::instance().get(ServingConfig{});

    bench::WallTimer suite;
    std::vector<ScaleResult> results = par::parallelMap(
        opts.jobs, points.size(),
        [&points](std::size_t i) { return runPoint(points[i]); });
    double total_wall = suite.seconds();

    std::printf("\n%-14s %9s %10s %10s %12s %9s %9s\n", "policy",
                "replicas", "requests", "completed", "events",
                "ns/event", "kreq/s");
    bench::printRule(78);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ScalePoint &pt = points[i];
        const ScaleResult &r = results[i];
        std::printf(
            "%-14s %9d %10zu %10zu %12llu %9.0f %9.1f\n",
            policyName(pt.policy), pt.replicas, pt.requests, r.completed,
            static_cast<unsigned long long>(r.events),
            r.events > 0
                ? 1e9 * r.wallSeconds / static_cast<double>(r.events)
                : 0.0,
            r.wallSeconds > 0.0
                ? static_cast<double>(r.completed) / r.wallSeconds / 1e3
                : 0.0);
    }
    std::printf("\nExpected shape: ns/event stays flat as replicas and "
                "requests grow; QoServe pays a constant\nfactor over "
                "FCFS for its per-iteration chunk solve, not a growing "
                "one.\n");

    std::vector<bench::JsonRun> runs;
    runs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        bench::JsonRun jr;
        jr.label = std::string(policyName(points[i].policy)) + "/r" +
                   std::to_string(points[i].replicas);
        jr.qps = kQpsPerReplica * points[i].replicas;
        jr.wallSeconds = results[i].wallSeconds;
        jr.requests = results[i].completed;
        jr.events = results[i].events;
        runs.push_back(std::move(jr));
    }
    bench::writeBenchJson(opts, runs, total_wall);
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    // Strip the bench-specific flag before the common parser (which
    // rejects unknown flags).
    bool smoke = false;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
        else
            rest.push_back(argv[i]);
    }
    qoserve::run(qoserve::bench::parseBenchArgs(
                     "ext_scale", static_cast<int>(rest.size()),
                     rest.data()),
                 smoke);
    return 0;
}
