/**
 * @file
 * Table 4: cluster-scale experiment.
 *
 * Serves the Az-Code workload at 35 QPS (three equal tiers) with
 * Llama3-8B replicas and compares:
 *   - Silo-(7,3,3): 13 GPUs, per-tier Sarathi silos (Q1 at chunk
 *     256, Q2/Q3 at chunk 2048);
 *   - Silo-(6,2,2): the silo shrunk to QoServe's 10-GPU budget;
 *   - QoServe-(10): 10 shared mixed-workload replicas.
 * Prints per-tier p99 latency against SLO and overall violations.
 * Expected shape: QoServe matches the 13-GPU silo's SLO attainment
 * with 10 GPUs, while the 10-GPU silo collapses (paper: 60.4%
 * violations).
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

struct Row
{
    const char *name;
    int gpus = 0;
    double p99[3] = {0, 0, 0};
    double violations = 0.0;
};

Row
runSilo(const char *name, const Trace &trace, int q1, int q2, int q3)
{
    ClusterSim::Config cc;
    cc.replica.hw = llama3_8b_a100_tp1();
    ClusterSim sim(cc, trace);

    ServingConfig strict;
    strict.policy = Policy::SarathiFcfs;
    strict.base.fixedChunkTokens = 256;

    ServingConfig relaxed;
    relaxed.policy = Policy::SarathiFcfs;
    relaxed.base.fixedChunkTokens = 2048;

    sim.routeTier(0, sim.addReplicaGroup(q1, makeSchedulerFactory(strict)));
    sim.routeTier(1, sim.addReplicaGroup(q2, makeSchedulerFactory(relaxed)));
    sim.routeTier(2, sim.addReplicaGroup(q3, makeSchedulerFactory(relaxed)));
    RunSummary s = summarize(sim.run());

    Row row;
    row.name = name;
    row.gpus = sim.totalGpus();
    row.violations = 100.0 * s.violationRate;
    for (const auto &ts : s.tiers)
        row.p99[ts.tierId] = ts.tierId == 0 ? ts.p99Ttft : ts.p99Ttlt;
    return row;
}

Row
runShared(const char *name, const Trace &trace, int replicas)
{
    Scenario sc;
    sc.serving.policy = Policy::QoServe;
    sc.serving.numReplicas = replicas;
    ScenarioResult res = bench::simulate(sc, trace);
    const RunSummary &s = res.summary;

    Row row;
    row.name = name;
    row.gpus = res.cluster->totalGpus();
    row.violations = 100.0 * s.violationRate;
    for (const auto &ts : s.tiers)
        row.p99[ts.tierId] = ts.tierId == 0 ? ts.p99Ttft : ts.p99Ttlt;
    return row;
}

void
run()
{
    bench::printBanner("Cluster-scale siloed vs shared serving",
                       "Table 4");

    // 35 QPS for 10 simulated minutes (the paper runs 360K requests;
    // trends are stable at this scale).
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(37)
                      .build(PoissonArrivals(35.0), 600.0);
    std::printf("workload: Az-Code at 35 QPS, %zu requests, 3 equal "
                "tiers, Llama3-8B/A100\n\n",
                trace.requests.size());

    Row rows[] = {
        runSilo("Silo-(7,3,3)", trace, 7, 3, 3),
        runSilo("Silo-(6,2,2)", trace, 6, 2, 2),
        runShared("QoServe-(10)", trace, 10),
    };

    std::printf("%-14s %6s %14s %14s %14s %12s\n", "scheme", "GPUs",
                "Q1 p99 (6s)", "Q2 p99 (600s)", "Q3 p99 (1800s)",
                "violations");
    bench::printRule(80);
    for (const Row &row : rows) {
        std::printf("%-14s %6d %14.2f %14.2f %14.2f %11.2f%%\n",
                    row.name, row.gpus, row.p99[0], row.p99[1],
                    row.p99[2], row.violations);
    }

    std::printf("\nPaper: Silo-(7,3,3) 13 GPUs 0.24%% violations; "
                "Silo-(6,2,2) 10 GPUs 60.4%%;\nQoServe 10 GPUs 0%% — "
                "23%% fewer GPUs at equal SLO attainment.\n");
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
