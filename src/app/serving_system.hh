/**
 * @file
 * The serving configuration of a deployment.
 *
 * ServingConfig holds the replica hardware, the scheduling policy and
 * its knobs, the predictor choice and the prefix cache. A Scenario
 * (app/scenario.hh) carries one, and runScenario() builds the
 * cluster's schedulers and predictor from it with the factories
 * below.
 */

#ifndef QOSERVE_APP_SERVING_SYSTEM_HH
#define QOSERVE_APP_SERVING_SYSTEM_HH

#include <memory>
#include <string>

#include "cluster/cluster.hh"
#include "predictor/latency_predictor.hh"
#include "prefixcache/prefix_cache.hh"
#include "sched/baseline_schedulers.hh"
#include "sched/dp_scheduler.hh"
#include "sched/qoserve_scheduler.hh"

namespace qoserve {

/** Scheduling policy selector. */
enum class Policy
{
    QoServe,     ///< The paper's scheduler (§3).
    SarathiFcfs, ///< Sarathi chunked prefill, FCFS order.
    SarathiEdf,  ///< Sarathi with earliest-deadline-first order.
    SarathiSjf,  ///< Sarathi with shortest-job-first order.
    SarathiSrpf, ///< Sarathi with shortest-remaining-prompt order.
    Medha,       ///< Medha-style adaptive chunking (§4.5.1).
    SlosServeDp, ///< SLOs-Serve-style DP scheduler (§4.5.3).
};

/** Display name of a policy. */
const char *policyName(Policy policy);

/**
 * Full configuration of a serving deployment.
 */
struct ServingConfig
{
    /** Replica hardware (model, GPU, TP). */
    ReplicaHwConfig hw = llama3_8b_a100_tp1();

    /** Execution-model efficiency knobs. */
    PerfModelParams perfParams{};

    /** Replica count in the (single-group, shared) cluster. */
    int numReplicas = 1;

    /** Scheduling policy. */
    Policy policy = Policy::QoServe;

    /** QoServe feature flags (used when policy == QoServe). */
    QoServeConfig qoserve{};

    /** Medha knobs (used when policy == Medha). */
    MedhaScheduler::Options medha{};

    /** Base chunked-scheduler knobs (chunk size, decode batch cap). */
    ChunkedSchedulerConfig base{};

    /**
     * Use the trained random-forest predictor for dynamic chunking;
     * false substitutes the oracle predictor (useful in tests and
     * predictor ablations).
     */
    bool useForestPredictor = true;

    /**
     * Worker threads for predictor training (0 = hardware
     * concurrency, 1 = serial). The trained predictor is
     * bit-identical for every value.
     */
    int trainJobs = 0;

    /** Shared-prefix KV cache on every replica (off by default; off
     *  leaves every run byte-identical to a build without it). */
    PrefixCacheConfig prefixCache{};

    /** Route each request to the replica holding the longest cached
     *  prefix of its prompt; requires prefixCache.enabled (fatal
     *  otherwise — affinity without a cache is a configuration
     *  error). */
    bool cacheAffinityRouting = false;
};

/**
 * Build a scheduler factory for a policy (advanced: for direct
 * ClusterSim composition, e.g. siloed deployments mixing policies).
 */
SchedulerFactory makeSchedulerFactory(const ServingConfig &cfg);

/**
 * True when a configuration consults a latency predictor: QoServe
 * with dynamic chunking on. makePredictor(), runScenario() and the
 * benches' predictor cache all decide with this one rule.
 */
bool usesPredictor(const ServingConfig &cfg);

/**
 * Construct the shared latency predictor a configuration needs, or
 * nullptr when the policy never consults one (see usesPredictor()).
 */
std::shared_ptr<const LatencyPredictor>
makePredictor(const ServingConfig &cfg);

} // namespace qoserve

#endif // QOSERVE_APP_SERVING_SYSTEM_HH
