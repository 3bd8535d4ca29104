/**
 * @file
 * Shared bench helper implementation.
 */

#include "bench_common.hh"

#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

#include "bench_build_info.hh"
#include "core/check_level.hh"

namespace qoserve {
namespace bench {

namespace {

/** Cache key of a predictor: its hardware, and the oracle marker. */
std::string
predictorKey(const ServingConfig &cfg)
{
    return cfg.hw.model.name + "/" + cfg.hw.gpu.name + "/tp" +
           std::to_string(cfg.hw.tpDegree) +
           (cfg.useForestPredictor ? "" : "/oracle");
}

} // namespace

PredictorCache &
PredictorCache::instance()
{
    static PredictorCache cache;
    return cache;
}

const LatencyPredictor *
PredictorCache::get(const ServingConfig &cfg)
{
    if (!usesPredictor(cfg))
        return nullptr;
    // Training runs under the lock: concurrent sweep tasks needing
    // the same (model, GPU, TP) block until the first finishes, then
    // share the result. Training itself is seed-deterministic, so
    // whichever task trains produces the same predictor.
    std::lock_guard<std::mutex> lock(mutex_);
    std::string key = predictorKey(cfg);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        if (cfg.useForestPredictor) // the oracle needs no training
            std::fprintf(stderr,
                         "[bench] training forest predictor for %s\n",
                         key.c_str());
        it = cache_.emplace(key, makePredictor(cfg)).first;
    }
    return it->second.get();
}

int
BenchOptions::effectiveJobs() const
{
    return par::resolveJobs(jobs);
}

BenchOptions
parseBenchArgs(const std::string &bench_name, int argc, char **argv)
{
    BenchOptions opts;
    opts.benchName = bench_name;

    auto usage = [&](std::FILE *out) {
        std::fprintf(out,
                     "usage: %s [--jobs N] [--json PATH]\n"
                     "  --jobs N   sweep worker threads (default: "
                     "hardware concurrency; 1 = serial).\n"
                     "             Bench output is identical for every "
                     "N.\n"
                     "  --json P   write per-run wall-clock/throughput "
                     "JSON to P\n",
                     bench_name.c_str());
    };

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (flag == "--jobs") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--jobs requires a value\n");
                std::exit(1);
            }
            const char *value = argv[++i];
            char *end = nullptr;
            long jobs = std::strtol(value, &end, 10);
            if (end == value || *end != '\0' || jobs < 0) {
                std::fprintf(stderr,
                             "--jobs: expected a non-negative "
                             "integer, got '%s'\n",
                             value);
                std::exit(1);
            }
            opts.jobs = static_cast<int>(jobs);
        } else if (flag == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json requires a value\n");
                std::exit(1);
            }
            opts.jsonOut = argv[++i];
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            usage(stderr);
            std::exit(1);
        }
    }
    return opts;
}

ScenarioResult
simulate(const Scenario &sc, Trace trace,
         std::function<void(ClusterSim &)> before_run)
{
    RunHooks hooks;
    hooks.predictor = PredictorCache::instance().get(sc.serving);
    hooks.beforeRun = std::move(before_run);
    return runScenario(sc, std::move(trace), hooks);
}

RunSummary
runOnce(const Scenario &sc)
{
    return simulate(sc, buildTrace(sc)).summary;
}

std::vector<RunResult>
runMany(const std::vector<RunPoint> &points, int jobs)
{
    // Train each distinct predictor before the fan-out, so sweep
    // tasks never serialize on the cache lock and the per-run wall
    // clocks measure simulation, not training waits. The training
    // itself parallelizes over trees.
    for (const RunPoint &pt : points)
        PredictorCache::instance().get(pt.scenario.serving);

    return par::parallelMap(
        jobs, points.size(), [&points](std::size_t i) {
            WallTimer timer;
            RunResult res;
            res.summary = runOnce(points[i].scenario);
            res.wallSeconds = timer.seconds();
            return res;
        });
}

double
goodput(const Scenario &sc, const GoodputSearch &search,
        const GoodputCriteria &criteria)
{
    PredictorCache::instance().get(sc.serving); // pre-train, see runMany
    LoadRunner runner = [&sc](double qps) {
        Scenario probe = sc;
        probe.qps = qps;
        return runOnce(probe);
    };
    return measureMaxGoodput(runner, criteria, search);
}

std::vector<JsonRun>
toJsonRuns(const std::vector<RunPoint> &points,
           const std::vector<RunResult> &results)
{
    std::vector<JsonRun> runs;
    runs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        JsonRun jr;
        jr.label = points[i].label;
        jr.qps = points[i].scenario.qps;
        jr.wallSeconds = results[i].wallSeconds;
        jr.requests = results[i].summary.count;
        runs.push_back(jr);
    }
    return runs;
}

namespace {

/** Minimal JSON string escape (labels are plain ASCII). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

void
writeBenchJson(const BenchOptions &opts, const std::vector<JsonRun> &runs,
               double total_wall_seconds)
{
    if (!opts.jsonOut)
        return;
    std::ofstream out(*opts.jsonOut);
    if (!out) {
        std::fprintf(stderr, "[bench] cannot write %s\n",
                     opts.jsonOut->c_str());
        std::exit(1);
    }

    std::size_t total_requests = 0;
    for (const JsonRun &r : runs)
        total_requests += r.requests;

    out << "{\n";
    out << "  \"bench\": \"" << jsonEscape(opts.benchName) << "\",\n";
    out << "  \"git_describe\": \"" << jsonEscape(QOSERVE_GIT_DESCRIBE)
        << "\",\n";
    out << "  \"git_commit\": \"" << jsonEscape(QOSERVE_GIT_COMMIT)
        << "\",\n";
    out << "  \"build_type\": \"" << jsonEscape(QOSERVE_BUILD_TYPE)
        << "\",\n";
    out << "  \"check_level\": \""
        << audit::checkLevelName(audit::kCompiledLevel) << "\",\n";
    out << "  \"compiler\": \"" << jsonEscape(QOSERVE_COMPILER) << "\",\n";
    out << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n";
    out << "  \"jobs\": " << opts.effectiveJobs() << ",\n";
    out << "  \"total_wall_s\": " << total_wall_seconds << ",\n";
    out << "  \"total_requests\": " << total_requests << ",\n";
    out << "  \"requests_per_s\": "
        << (total_wall_seconds > 0.0
                ? static_cast<double>(total_requests) / total_wall_seconds
                : 0.0)
        << ",\n";
    out << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonRun &r = runs[i];
        out << "    {\"label\": \"" << jsonEscape(r.label)
            << "\", \"qps\": " << r.qps << ", \"wall_s\": "
            << r.wallSeconds << ", \"requests\": " << r.requests
            << ", \"requests_per_s\": "
            << (r.wallSeconds > 0.0
                    ? static_cast<double>(r.requests) / r.wallSeconds
                    : 0.0);
        if (r.events > 0) {
            out << ", \"events\": " << r.events << ", \"ns_per_event\": "
                << (r.events > 0
                        ? 1e9 * r.wallSeconds /
                              static_cast<double>(r.events)
                        : 0.0);
        }
        out << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    std::fprintf(stderr, "[bench] wrote perf JSON to %s\n",
                 opts.jsonOut->c_str());
}

void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

void
printBanner(const std::string &title, const std::string &paper_ref)
{
    printRule();
    std::printf("%s\n(reproduces %s of \"QoServe: Breaking the Silos of "
                "LLM Inference Serving\", ASPLOS'26)\n",
                title.c_str(), paper_ref.c_str());
    printRule();
}

} // namespace bench
} // namespace qoserve
