/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation (see DESIGN.md §3): it builds the workload the paper
 * describes, runs the schedulers under test in the simulator, and
 * prints the same rows/series the paper reports. Scales (request
 * counts, durations) are reduced relative to the paper's 4-hour GPU
 * runs to keep the full suite executable in minutes; EXPERIMENTS.md
 * records the mapping and the measured-vs-published comparison.
 *
 * Sweep benches fan their independent (policy, QPS, seed) runs across
 * a worker pool via runMany(). Every bench accepts:
 *   --jobs N   worker threads (default hardware concurrency; 1 =
 *              serial). Output is bit-identical for every N.
 *   --json P   dump per-run wall-clock and simulation throughput as
 *              JSON (the perf-trajectory record, see
 *              BENCH_parallel.json).
 */

#ifndef QOSERVE_BENCH_BENCH_COMMON_HH
#define QOSERVE_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "app/qoserve.hh"

namespace qoserve {
namespace bench {

/** Default seed for bench workloads. */
inline constexpr std::uint64_t kSeed = 42;

/**
 * Cache of trained predictors keyed by hardware config, so sweeps pay
 * the training cost once per (model, GPU, TP) like the paper's
 * per-configuration profiling (§3.6.1). get() is safe to call from
 * concurrent sweep tasks.
 */
class PredictorCache
{
  public:
    /** The predictor @p cfg runs with (trained by makePredictor() on
     *  first use for its hardware), or null when usesPredictor(cfg)
     *  is false. Benches keep the default perf-model params. */
    const LatencyPredictor *get(const ServingConfig &cfg);

    /** Singleton shared by a bench binary. */
    static PredictorCache &instance();

  private:
    std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const LatencyPredictor>> cache_;
};

/** Common bench command-line options. */
struct BenchOptions
{
    /** Bench binary name (used in the JSON record). */
    std::string benchName;

    /** Sweep worker threads; 0 = hardware concurrency. */
    int jobs = 0;

    /** When set, write the per-run perf JSON here. */
    std::optional<std::string> jsonOut;

    /** jobs with 0 resolved to the hardware concurrency. */
    int effectiveJobs() const;
};

/**
 * Parse the shared bench flags (--jobs, --json, --help). Unknown
 * flags and --help print usage; --help exits 0, errors exit 1.
 */
BenchOptions parseBenchArgs(const std::string &bench_name, int argc,
                            char **argv);

/**
 * Run @p trace under @p sc with the cached predictor; @p before_run
 * sees the assembled cluster just before it runs (RunHooks). The
 * trace is taken by value, as runScenario() takes it.
 */
ScenarioResult simulate(const Scenario &sc, Trace trace,
                        std::function<void(ClusterSim &)> before_run = {});

/** Run @p sc on its own synthesized trace and summarize. */
RunSummary runOnce(const Scenario &sc);

/** One point of a sweep fan-out. */
struct RunPoint
{
    Scenario scenario;

    /** Row/series label, carried into the perf JSON. */
    std::string label;
};

/** Result of one fan-out point. */
struct RunResult
{
    RunSummary summary;

    /** Wall-clock of this run (trace build + simulate + summarize). */
    double wallSeconds = 0.0;
};

/**
 * Run every point, fanning across @p jobs worker threads (0 =
 * hardware concurrency), and join the results in point order.
 * Metrics are bit-identical for every job count: each point's trace
 * is derived from its own scenario seed and points share no mutable
 * state. Only the recorded wall-clock varies between runs.
 */
std::vector<RunResult> runMany(const std::vector<RunPoint> &points,
                               int jobs);

/**
 * Per-replica goodput of a scenario (paper §4.1.2: max QPS with <= 1%
 * violations), via bracket + parallel grid refinement; each probe
 * replaces the scenario's qps. Probe parallelism comes from
 * @p search.jobs.
 */
double goodput(const Scenario &sc, const GoodputSearch &search = {},
               const GoodputCriteria &criteria = {});

/** One row of the perf-trajectory JSON. */
struct JsonRun
{
    std::string label;
    double qps = 0.0;
    double wallSeconds = 0.0;
    std::size_t requests = 0;

    /** Kernel events fired during the run; 0 (the default) omits the
     *  per-event columns, so only scale benches report them. */
    std::uint64_t events = 0;
};

/** Convert a fan-out's points + results into JSON rows. */
std::vector<JsonRun> toJsonRuns(const std::vector<RunPoint> &points,
                                const std::vector<RunResult> &results);

/**
 * Write the perf JSON (per-run wall-clock and simulated-request
 * throughput plus suite totals) to opts.jsonOut if set; no-op
 * otherwise. The header stamps the build type, check level, compiler
 * and host core count the numbers were measured with.
 */
void writeBenchJson(const BenchOptions &opts,
                    const std::vector<JsonRun> &runs,
                    double total_wall_seconds);

/**
 * Wall-clock stopwatch. The bench harness measures how long the
 * simulator itself takes to run — that is a property of the host, not
 * of the simulation, so wall-clock here never feeds back into
 * simulated results.
 */
class WallTimer
{
  public:
    // qoserve-lint: allow(no-wall-clock)
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds since construction. */
    double seconds() const
    {
        // qoserve-lint: allow(no-wall-clock)
        auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

  private:
    // qoserve-lint: allow(no-wall-clock)
    std::chrono::steady_clock::time_point start_;
};

/** Print a rule line. */
void printRule(int width = 78);

/** Print a bench banner. */
void printBanner(const std::string &title, const std::string &paper_ref);

} // namespace bench
} // namespace qoserve

#endif // QOSERVE_BENCH_BENCH_COMMON_HH
