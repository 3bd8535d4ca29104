/**
 * @file
 * Shared fixtures for scheduler tests: a canned environment (KV
 * manager, perf model, oracle predictor) and request factories.
 */

#ifndef QOSERVE_TESTS_SCHED_SCHED_TEST_UTIL_HH
#define QOSERVE_TESTS_SCHED_SCHED_TEST_UTIL_HH

#include <memory>
#include <vector>

#include "kvcache/block_manager.hh"
#include "predictor/latency_predictor.hh"
#include "sched/scheduler.hh"
#include "workload/qos.hh"

namespace qoserve {
namespace test {

/**
 * Owns the services a scheduler needs, with paper-default hardware.
 */
struct SchedEnvFixture
{
    SchedEnvFixture()
        : perf(llama3_8b_a100_tp1()), kv(TokenCount{perf.hw().kvCapacityTokens()}, TokenCount{16}),
          oracle(perf), tiers(paperTierTable())
    {
        env.kv = &kv;
        env.perf = &perf;
        env.predictor = &oracle;
    }

    PerfModel perf;
    BlockManager kv;
    OracleLatencyPredictor oracle;
    TierTable tiers;
    SchedulerEnv env;

    std::vector<std::unique_ptr<Request>> owned;

    /** Build a request owned by the fixture. */
    Request *
    makeRequest(std::uint64_t id, SimTime arrival, int prompt, int decode,
                int tier_id, bool important = true)
    {
        RequestSpec spec;
        spec.id = id;
        spec.arrival = arrival;
        spec.promptTokens = prompt;
        spec.decodeTokens = decode;
        spec.tierId = tier_id;
        spec.appId = tier_id;
        spec.important = important;
        AppStats stats;
        stats.meanDecode = decode;
        stats.stddevDecode = 0.0;
        owned.push_back(std::make_unique<Request>(
            spec, tiers[tier_id], stats));
        return owned.back().get();
    }
};

/** Drive a scheduler through one synchronous iteration. */
inline Batch
runIteration(Scheduler &sched, const PerfModel &perf, SimTime &now)
{
    Batch batch;
    sched.formBatchInto(batch, now);
    if (!batch.empty()) {
        now += perf.iterationTime(batch.work());
        sched.onBatchComplete(batch, now);
    }
    return batch;
}

} // namespace test
} // namespace qoserve

#endif // QOSERVE_TESTS_SCHED_SCHED_TEST_UTIL_HH
