/**
 * @file
 * Extension: chaos harness for compound failure scenarios.
 *
 * The other fault benches study one failure mechanism at a time; real
 * incidents stack them. This harness sweeps compound scenarios — a
 * correlated zone outage, a control-plane partition, and both at
 * once — each under a burst-arrival workload, with and without the
 * graceful-degradation stack (circuit breaker + deadline-aware
 * cancellation + brownout controller), and asserts the robustness
 * invariants the stack is supposed to buy (DESIGN.md §13):
 *
 *  - no request is lost: every trace request produces exactly one
 *    record (served, rejected, shed, or abandoned) in every scenario;
 *  - graceful degradation: with mitigations on, goodput under a
 *    single-zone loss stays above a configurable fraction of the
 *    healthy baseline (--goodput-floor, default 0.5);
 *  - determinism: output is byte-identical for every --jobs value
 *    (CI compares --jobs 1 vs 4 in smoke mode).
 *
 * Any violated invariant prints a diagnostic and exits non-zero, so
 * the harness doubles as a CI gate.
 *
 * Extra flags (before the common ones): --smoke shortens the runs for
 * CI; --goodput-floor F overrides the degradation floor.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

/** One compound scenario: a failure shape x mitigation toggle. */
struct ChaosCase
{
    const char *name;
    bool zoneOutage = false;
    bool partition = false;
    bool mitigated = false;
};

constexpr ChaosCase kCases[] = {
    {"healthy", false, false, false},
    {"healthy+mit", false, false, true},
    {"zone", true, false, false},
    {"zone+mit", true, false, true},
    {"partition", false, true, false},
    {"partition+mit", false, true, true},
    {"zone+part", true, true, false},
    {"zone+part+mit", true, true, true},
};

struct ChaosResult
{
    RunSummary summary;
    FaultStats faults;
    std::size_t traceRequests = 0;
    std::size_t recorded = 0;
    std::uint64_t breakerTrips = 0;
    std::uint64_t deadlineCancelled = 0;
    std::uint64_t brownoutShed = 0;
    std::uint64_t brownoutCapped = 0;
    std::uint64_t redispatches = 0;
    double simSeconds = 0.0;
    double wallSeconds = 0.0;
};

/** Requests served within SLO per second — the quantity the
 *  degradation floor is asserted on. */
double
goodputRps(const ChaosResult &r)
{
    if (r.simSeconds <= 0.0)
        return 0.0;
    double served =
        static_cast<double>(r.summary.count) * r.summary.availability;
    return served * (1.0 - r.summary.violationRate) / r.simSeconds;
}

ChaosResult
runCase(const ChaosCase &cs, bool smoke)
{
    // Burst-arrival workload: steady base load with a burst window in
    // the first half, sized so a healthy fleet absorbs it without
    // tripping the brownout controller — only real capacity loss (a
    // zone down) pushes the survivors over the enter backlog.
    const double duration = smoke ? 120.0 : 300.0;
    const double base_qps = 6.0;
    const double burst_qps = 10.0;
    Trace trace =
        TraceBuilder()
            .dataset(azureCode())
            .seed(19)
            .build(BurstArrivals(base_qps, burst_qps,
                                 SimTime{duration * 0.2},
                                 SimTime{duration * 0.4}),
                   duration);

    Scenario sc;
    sc.serving.policy = Policy::QoServe;
    sc.serving.numReplicas = 4;
    if (cs.mitigated) {
        sc.breaker.failureThreshold = 3;
        sc.breaker.cooldown = 0.5;
        sc.deadlineCancel = true;
    }
    sc.domains.seed = 7;
    if (cs.zoneOutage) {
        sc.domains.zones = 2;
        sc.domains.zoneMtbf = duration * 0.4;
        sc.domains.zoneMttr = duration * 0.12;
    }
    if (cs.partition) {
        // Long-ish partitions at a high rate so an outage landing
        // inside one (stale view keeps routing to dead replicas) is
        // likely in the compound scenario.
        sc.domains.partitionMtbf = duration * 0.25;
        sc.domains.partitionMttr = duration * 0.15;
        sc.domains.partitionFrac = 0.5;
    }

    // Thresholds sized so the burst alone stays under the enter
    // backlog on a healthy fleet; only real capacity loss (a zone
    // down) pushes the survivors over it. The burst's peak backlog
    // scales with the burst window (0.2 x duration), so the
    // thresholds scale with duration to keep that separation in both
    // smoke and full modes.
    sc.brownout.enabled = cs.mitigated;
    sc.brownout.enterBacklog = 9000.0 * (duration / 120.0);
    sc.brownout.exitBacklog = 2000.0 * (duration / 120.0);

    bench::WallTimer timer;
    ScenarioResult res = bench::simulate(sc, trace);
    const ClusterSim &sim = *res.cluster;
    ChaosResult out;
    out.summary = res.summary;
    out.wallSeconds = timer.seconds();
    if (res.faults)
        out.faults = *res.faults;
    out.traceRequests = trace.requests.size();
    out.recorded = sim.metrics().totalRecorded();
    out.breakerTrips = sim.breakerTrips();
    out.deadlineCancelled = sim.deadlineCancelled();
    out.brownoutShed = sim.brownoutShed();
    out.brownoutCapped = sim.brownoutCapped();
    out.redispatches = sim.redispatches();
    out.simSeconds = duration;
    return out;
}

int
run(const bench::BenchOptions &opts, bool smoke, double goodput_floor)
{
    bench::printBanner("Chaos harness: compound failure scenarios",
                       "robustness extension (DESIGN.md §13)");

    // Train the predictor before the fan-out (see bench::runMany).
    bench::PredictorCache::instance().get(ServingConfig{});

    const std::size_t n = std::size(kCases);
    bench::WallTimer suite;
    std::vector<ChaosResult> results = par::parallelMap(
        opts.jobs, n, [smoke](std::size_t i) {
            return runCase(kCases[i], smoke);
        });
    double total_wall = suite.seconds();

    std::printf("\n%-14s %7s %7s %8s %6s %6s %6s %6s %6s\n", "scenario",
                "avail%", "viol%", "goodput", "trips", "cancel", "shed",
                "redisp", "downed");
    bench::printRule(78);
    for (std::size_t i = 0; i < n; ++i) {
        const ChaosResult &r = results[i];
        std::printf(
            "%-14s %7.2f %7.2f %8.3f %6llu %6llu %6llu %6llu %6llu\n",
            kCases[i].name, 100.0 * r.summary.availability,
            100.0 * r.summary.violationRate, goodputRps(r),
            static_cast<unsigned long long>(r.breakerTrips),
            static_cast<unsigned long long>(r.deadlineCancelled),
            static_cast<unsigned long long>(r.brownoutShed),
            static_cast<unsigned long long>(r.redispatches),
            static_cast<unsigned long long>(r.faults.replicasDowned));
    }

    // ---- invariants -------------------------------------------------
    int failures = 0;

    // Conservation: every trace request must surface as exactly one
    // record, in every scenario — served, rejected, shed or abandoned,
    // but never silently dropped.
    for (std::size_t i = 0; i < n; ++i) {
        const ChaosResult &r = results[i];
        if (r.recorded != r.traceRequests) {
            std::fprintf(stderr,
                         "chaos invariant violated: scenario %s lost "
                         "requests (%zu recorded of %zu in trace)\n",
                         kCases[i].name, r.recorded,
                         r.traceRequests);
            ++failures;
        }
    }

    // Degradation floor: mitigated single-zone loss keeps at least
    // goodput_floor of the healthy mitigated baseline.
    double healthy = goodputRps(results[1]);  // healthy+mit
    double degraded = goodputRps(results[3]); // zone+mit
    if (degraded < goodput_floor * healthy) {
        std::fprintf(stderr,
                     "chaos invariant violated: zone+mit goodput "
                     "%.3f req/s < %.0f%% of healthy %.3f req/s\n",
                     degraded, 100.0 * goodput_floor, healthy);
        ++failures;
    }

    // The fault machinery must actually engage where configured —
    // a scenario that silently no-ops would pass the above vacuously.
    if (results[3].faults.zoneOutages == 0) {
        std::fprintf(stderr, "chaos invariant violated: zone scenario "
                             "produced no zone outage\n");
        ++failures;
    }
    if (results[5].faults.partitions == 0) {
        std::fprintf(stderr, "chaos invariant violated: partition "
                             "scenario produced no partition\n");
        ++failures;
    }

    if (failures == 0) {
        std::printf("\nchaos invariants: all pass (no request lost in "
                    "%zu scenarios; zone+mit goodput %.3f >= %.0f%% "
                    "of healthy %.3f req/s)\n",
                    n, degraded, 100.0 * goodput_floor, healthy);
    }

    std::vector<bench::JsonRun> runs;
    runs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        bench::JsonRun jr;
        jr.label = kCases[i].name;
        jr.qps = 6.0;
        jr.wallSeconds = results[i].wallSeconds;
        jr.requests = results[i].recorded;
        runs.push_back(std::move(jr));
    }
    bench::writeBenchJson(opts, runs, total_wall);
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    // Strip the chaos-specific flags before the common parser (which
    // rejects unknown flags).
    bool smoke = false;
    double goodput_floor = 0.5;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        std::string arg(argv[i]);
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--goodput-floor") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--goodput-floor requires a value\n");
                return 1;
            }
            goodput_floor = std::atof(argv[++i]);
            if (!(goodput_floor >= 0.0 && goodput_floor <= 1.0)) {
                std::fprintf(stderr, "--goodput-floor must be in "
                                     "[0, 1], got %s\n",
                             argv[i]);
                return 1;
            }
        } else {
            rest.push_back(argv[i]);
        }
    }
    return qoserve::run(qoserve::bench::parseBenchArgs(
                            "ext_chaos", static_cast<int>(rest.size()),
                            rest.data()),
                        smoke, goodput_floor);
}
