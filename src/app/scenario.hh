/**
 * @file
 * One description of a simulation run, and the one place that runs it.
 *
 * A Scenario is a point of the evaluation grid — workload, deployment,
 * faults, degradation, observers and output files — as a plain value.
 * qoserve_sim parses its flags into one, the benches and examples
 * fill one in code, and all of them hand it to runScenario(), which
 * assembles the cluster, attaches what the scenario switches on, runs
 * it and writes the requested files (DESIGN.md §16).
 *
 * @code
 *   Scenario sc;
 *   sc.serving.numReplicas = 2;
 *   sc.qps = 4.0;
 *   ScenarioResult res = runScenario(sc, buildTrace(sc));
 *   printSummary(res.summary, sc.tiers, std::cout);
 * @endcode
 */

#ifndef QOSERVE_APP_SCENARIO_HH
#define QOSERVE_APP_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/serving_system.hh"
#include "cluster/brownout.hh"
#include "fault/fault_injector.hh"
#include "obs/slo_monitor.hh"
#include "workload/trace.hh"

namespace qoserve {

/**
 * Everything one run needs. The defaults are qoserve_sim's defaults.
 * Every field but requestCount is set by one qoserve_sim flag, and
 * that flag's row in the flag table (app/cli_options.cc) documents it.
 */
struct Scenario
{
    ServingConfig serving;

    Dataset dataset = azureCode();
    TierTable tiers = paperTierTable();
    std::vector<double> tierMix{};
    double lowPriorityFraction = 0.0;
    SharedPrefixConfig sharedPrefix{};
    double qps = 3.0;
    SimDuration duration = 600.0;

    /** Trace length in requests; when positive it replaces
     *  duration. */
    std::size_t requestCount = 0;

    std::uint64_t seed = 42;
    LoadBalancePolicy loadBalance = LoadBalancePolicy::RoundRobin;

    FaultConfig fault{};
    DomainConfig domains{};
    RetryPolicy retry{};
    CircuitBreakerConfig breaker{};
    bool deadlineCancel = false;
    BrownoutConfig brownout{};
    bool healthAwareRouting = true;

    std::optional<std::string> traceIn;
    std::optional<std::string> traceOut;
    std::optional<std::string> recordsOut;
    std::optional<std::string> telemetryOut;
    std::optional<std::string> summaryOut;
    std::optional<std::string> traceJsonOut;
    std::optional<std::string> traceEventsOut;
    std::optional<std::string> metricsOut;
    double metricsInterval = 5.0;
    std::optional<std::string> sketchOut;
    double sketchAlpha = 0.01;
    bool sloMonitor = false;
    SloMonitorConfig sloAlert{};
    std::optional<std::string> sloAlertsOut;

    /**
     * Check the scenario: each flag-table row's range
     * (app/cli_options.hh), then the rules that relate two fields.
     * Violations are fatal (user) errors naming the qoserve_sim flag.
     */
    void validate() const;
};

/** What a caller may supply to runScenario() besides the scenario. */
struct RunHooks
{
    /** A trained predictor to use instead of training one (not
     *  owned; must outlive the returned cluster). Ignored when the
     *  scenario needs no predictor (usesPredictor()). */
    const LatencyPredictor *predictor = nullptr;

    /** Progress lines (qoserve_sim passes stderr); null is silent. */
    std::ostream *log = nullptr;

    /** Called on the assembled cluster just before it runs, after
     *  every observer the scenario switches on. */
    std::function<void(ClusterSim &)> beforeRun;
};

/** What runScenario() hands back. */
struct ScenarioResult
{
    RunSummary summary;

    /** The predictor runScenario() trained itself; null when the
     *  caller supplied one or the policy needs none. */
    std::shared_ptr<const LatencyPredictor> predictor;

    /** The cluster after the run, for inspection (records,
     *  per-replica state, counters). ClusterSim::run() refuses a
     *  second run; the observers runScenario() attached are
     *  destroyed and its trace sink detached. */
    std::unique_ptr<ClusterSim> cluster;

    /** Fault counters, when fault injection or failure domains
     *  ran. */
    std::optional<FaultStats> faults;
    double machineAvailability = 1.0;

    /** Brownout controller counters (zero when it is off). */
    int brownoutMaxLevel = 0;
    std::uint64_t brownoutSteps = 0;

    /** SLO monitor counters, when the monitor ran. */
    struct SloCounts
    {
        std::size_t alerts = 0;
        std::uint64_t ticks = 0;
        std::size_t activeTiers = 0;
    };
    std::optional<SloCounts> slo;
};

/**
 * Replay the scenario's trace file, or synthesize its Poisson
 * workload: requestCount requests when positive, else duration
 * seconds.
 */
Trace buildTrace(const Scenario &sc, std::ostream *log = nullptr);

/**
 * Run @p trace under @p sc (validated first): build the predictor and
 * cluster, attach the trace sink, streamed records, sketch bank, SLO
 * monitor, fault injector (horizon = last arrival),
 * brownout controller, telemetry and metrics sampler in that order,
 * run, and write every output file the scenario names.
 *
 * The attach order is fixed: events at the same simulated time fire
 * in (time, sequence) order, so reordering the attachments would
 * reorder those events and change the run.
 *
 * The returned cluster owns @p trace (ClusterSim::tiers()); a caller
 * done with its trace moves it in rather than copying it.
 */
ScenarioResult runScenario(const Scenario &sc, Trace trace,
                           const RunHooks &hooks = {});

} // namespace qoserve

#endif // QOSERVE_APP_SCENARIO_HH
