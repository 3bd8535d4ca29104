/**
 * @file
 * Figure 9: dynamic chunk sizes and batch execution times over
 * consecutive iterations.
 *
 * Runs QoServe on the Az-Conv trace (Llama3-8B, one replica) at a
 * moderate load and records 200 consecutive batches after warm-up:
 * the chosen chunk size and the iteration execution time. The
 * expected shape is the paper's saw-tooth: the chunk opens toward
 * the ~2.5K maximum when slack accumulates and collapses toward the
 * TBT-constrained floor when interactive decodes are tight. A
 * fixed-chunk Sarathi run is shown alongside as the flat reference.
 */

#include "bench_common.hh"

#include <algorithm>
#include <vector>

namespace qoserve {
namespace {

std::vector<BatchObservation>
observe(Policy policy, double qps)
{
    Scenario sc;
    sc.serving.policy = policy;
    sc.dataset = azureConv();
    sc.qps = qps;
    sc.requestCount = 1500;
    sc.seed = 19;

    std::vector<BatchObservation> observations;
    bench::simulate(sc, buildTrace(sc), [&](ClusterSim &sim) {
        sim.replica(0).setBatchObserver([&](const BatchObservation &obs) {
            observations.push_back(obs);
        });
    });
    return observations;
}

void
run()
{
    bench::printBanner("Dynamic chunk sizes over consecutive batches",
                       "Figure 9");

    // Near QoServe capacity: queued prefill exists for dynamic
    // chunking to exploit, as in the paper's loaded-replica setup.
    const double qps = 5.0;
    auto qoserve_obs = observe(Policy::QoServe, qps);
    auto sarathi_obs = observe(Policy::SarathiFcfs, qps);

    // Skip warm-up; show 200 consecutive batches (every 5th line).
    std::size_t start = qoserve_obs.size() > 400 ? 200 : 0;
    std::size_t end = std::min(start + 200, qoserve_obs.size());

    std::printf("%-10s %-18s %-18s %-18s\n", "batch", "QoServe chunk",
                "QoServe exec(ms)", "Sarathi chunk");
    bench::printRule(66);
    double chunk_sum = 0.0, exec_sum = 0.0;
    int chunk_max = 0, chunk_min = 1 << 30;
    for (std::size_t i = start; i < end; ++i) {
        const auto &obs = qoserve_obs[i];
        chunk_sum += obs.prefillTokens;
        exec_sum += obs.latency;
        chunk_max = std::max(chunk_max, obs.prefillTokens);
        chunk_min = std::min(chunk_min, obs.prefillTokens);
        if ((i - start) % 10 == 0) {
            int sarathi_chunk =
                i < sarathi_obs.size() ? sarathi_obs[i].prefillTokens
                                       : 0;
            std::printf("%-10zu %-18d %-18.1f %-18d\n", i - start,
                        obs.prefillTokens, toMillis(obs.latency),
                        sarathi_chunk);
        }
    }

    std::size_t n = end - start;
    bench::printRule(66);
    std::printf("QoServe chunk over window: min %d, mean %.0f, max %d "
                "(Sarathi fixed at 256)\n",
                chunk_min, chunk_sum / n, chunk_max);
    std::printf("mean exec time: %.1f ms\n", toMillis(exec_sum / n));

    // §4.1.4 claim: dynamic chunking yields ~20% higher throughput.
    // Compare total busy time to serve the identical trace.
    double qoserve_busy = 0.0, sarathi_busy = 0.0;
    for (const auto &o : qoserve_obs)
        qoserve_busy += o.latency;
    for (const auto &o : sarathi_obs)
        sarathi_busy += o.latency;
    std::printf("engine busy time for identical trace: QoServe %.1f s "
                "vs Sarathi %.1f s (%.0f%% less work time; paper: "
                "~20%% throughput gain)\n",
                qoserve_busy, sarathi_busy,
                100.0 * (1.0 - qoserve_busy / sarathi_busy));
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
