/**
 * @file
 * The benchmark's named workloads and the single-run harness.
 *
 * A run synthesizes the workload's trace from a seed, trains the
 * predictor serially, builds and wires the cluster (set-up), executes
 * ClusterSim::run(), then summarizes and writes every output (post).
 * The three phases are timed separately. The records CSV and summary
 * CSV bytes are hashed into a digest that must not depend on the run
 * mode: timed wrappers, detached auditors and attached observers are
 * all read-only.
 */

#ifndef QOSERVE_PERFBENCH_WORKLOADS_HH
#define QOSERVE_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "app/serving_system.hh"

namespace qoserve {
namespace perfbench {

/**
 * One open-loop workload: Poisson arrivals in simulated time over the
 * paper tier table with an equal mix, on Llama3-8B/A100/TP1.
 */
struct Workload
{
    std::string name;
    Policy policy = Policy::QoServe;
    Dataset dataset = azureCode();
    int replicas = 1;
    double qpsPerReplica = 1.0;

    /** Arrival window, simulated seconds. */
    SimDuration duration = 60.0;

    /**
     * Independent traces one run simulates back to back, each on a
     * fresh cluster (trace seed = run seed * sessions + index). Times
     * and counts are summed over them.
     */
    int sessions = 1;

    LoadBalancePolicy lb = LoadBalancePolicy::RoundRobin;

    /** Shared-prefix synthesis (shareRatio 0 = all prompts unique). */
    SharedPrefixConfig sharedPrefix{};

    /** Prefix cache at capacity 0.1 plus cache-affinity routing. */
    bool prefixCache = false;

    /** Attach every observer qoserve_sim can attach. */
    bool observers = false;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Workload by name, or null. */
const Workload *findWorkload(const std::string &name);

/** How a run is instrumented. */
enum class Mode
{
    Plain,         ///< No wrappers: the end-to-end measurement.
    Traced,        ///< Timed scheduler, predictor and callbacks.
    TracedNoAudit, ///< Traced with the invariant auditor detached.
};

/** Parse "plain" | "traced" | "noaudit" (fatal otherwise). */
Mode parseMode(const std::string &name);

struct RunOptions
{
    Mode mode = Mode::Plain;

    /** Directory every output file is written to; must exist. */
    std::string outDir;

    /** Replace the default auditor with a full-level one. */
    bool fullAudit = false;

    /** QoServe chunk-solver memo (off forces per-probe predicts). */
    bool solverMemo = true;
};

struct RunResult
{
    std::size_t requests = 0;

    /** Requests recorded as fully served. */
    std::size_t completed = 0;

    /** Requests missing, rejected or abandoned. */
    std::size_t lost = 0;

    /** FNV-1a over the records CSV then the summary CSV bytes. */
    std::string digest;

    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    double postSeconds = 0.0;

    /**
     * Set-up in its steps: predictor training, then each session's
     * synthesis and build. They sum to setupSeconds.
     */
    std::vector<double> setupParts;

    /**
     * Post-run work in its steps, per session: each observer export
     * file, summarize(), and the records and summary CSVs. They sum
     * to postSeconds.
     */
    std::vector<double> postParts;

    /**
     * run() cut at fixed simulated times, session after session; they
     * sum to runSeconds. The cuts depend only on the trace, so the
     * laps of two runs at one seed cover the same work.
     */
    std::vector<double> lapSeconds;

    /** Simulation events fired in run(), lap ticks excluded. */
    std::uint64_t events = 0;

    double violationPct = 0.0;
    double headlineP99 = 0.0;

    /** Output files present with the expected row counts. */
    bool artefactsOk = true;

    /** Per-layer metrics; span timings are zero unless traced. */
    std::map<std::string, double> layers;
};

/** Execute one run of @p workload at @p seed. */
RunResult runWorkload(const Workload &workload, std::uint64_t seed,
                      const RunOptions &opts);

} // namespace perfbench
} // namespace qoserve

#endif // QOSERVE_PERFBENCH_WORKLOADS_HH
