/**
 * @file
 * Figure 15: comparison with concurrent work (Medha, PolyServe).
 *
 * (a) Medha's adaptive chunking vs QoServe's slack-aware dynamic
 *     chunking on a synthetic trace of 10K-prefill/500-decode
 *     requests: chunk-size traces over consecutive batches, plus the
 *     isolated goodput comparison (QoServe with *only* dynamic
 *     chunking under FCFS-equivalent ordering vs Medha under FCFS).
 *     Paper: 23% goodput improvement (0.32 vs 0.26 QPS).
 *
 * (b) PolyServe-style TBT-partitioned deployments vs QoServe
 *     colocation: A100s needed to serve 50 QPS of two interactive
 *     classes (50 ms and 100 ms TBT, both 6 s TTFT) across request
 *     mixes. Paper: QoServe always needs fewer GPUs.
 */

#include "bench_common.hh"

#include <algorithm>
#include <cmath>
#include <vector>

namespace qoserve {
namespace {

/** Synthetic §4.5.1 trace: fixed 10K prefill, 500 decode. */
Trace
syntheticLongPrefillTrace(double qps, std::size_t count)
{
    Trace trace;
    trace.tiers = {interactiveTier(0, "Q1", 6.0, fromMillis(50.0))};
    trace.averageQps = qps;
    Rng rng(33);
    SimTime t;
    for (std::size_t i = 0; i < count; ++i) {
        t += rng.exponential(qps);
        RequestSpec spec;
        spec.id = i;
        spec.arrival = SimTime{t};
        spec.promptTokens = 10000;
        spec.decodeTokens = 500;
        spec.tierId = 0;
        spec.appId = 0;
        trace.requests.push_back(spec);
    }
    trace.appStats = computeAppStats(trace.requests);
    return trace;
}

Scenario
medhaScenario()
{
    Scenario sc;
    sc.serving.policy = Policy::Medha;
    return sc;
}

Scenario
qoserveDcOnlyScenario()
{
    // Dynamic chunking only: hybrid priority and relegation off, so
    // ordering degenerates to per-class EDF == FCFS on a single
    // class (the paper's isolation methodology).
    Scenario sc;
    sc.serving.policy = Policy::QoServe;
    sc.serving.qoserve.enableHybridPriority = false;
    sc.serving.qoserve.enableEagerRelegation = false;
    sc.serving.qoserve.maxChunkTokens = 4096;
    return sc;
}

void
partA()
{
    std::printf("\n(a) Medha adaptive chunking vs QoServe dynamic "
                "chunking\n\n");

    const double qps = 0.25;
    Trace trace = syntheticLongPrefillTrace(qps, 60);

    struct Observed
    {
        std::vector<int> chunks;
    };
    Observed medha_obs, qos_obs;

    for (int which = 0; which < 2; ++which) {
        Scenario sc = which == 0 ? medhaScenario() : qoserveDcOnlyScenario();
        Observed &obs = which == 0 ? medha_obs : qos_obs;
        bench::simulate(sc, trace, [&](ClusterSim &sim) {
            sim.replica(0).setBatchObserver([&](const BatchObservation &o) {
                if (obs.chunks.size() < 1000)
                    obs.chunks.push_back(o.prefillTokens);
            });
        });
    }

    std::printf("%-12s %-16s %-16s\n", "batch", "Medha chunk",
                "QoServe chunk");
    bench::printRule(46);
    std::size_t n = std::min(medha_obs.chunks.size(),
                             qos_obs.chunks.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 1000); i += 50) {
        std::printf("%-12zu %-16d %-16d\n", i, medha_obs.chunks[i],
                    qos_obs.chunks[i]);
    }

    // Isolated goodput comparison.
    auto goodput_of = [&](const Scenario &sc) {
        LoadRunner runner = [&](double probe_qps) {
            return bench::simulate(
                       sc, syntheticLongPrefillTrace(probe_qps, 80))
                .summary;
        };
        GoodputSearch search;
        search.startQps = 0.05;
        search.maxQps = 4.0;
        search.resolutionQps = 0.0125;
        GoodputCriteria criteria;
        criteria.includeTbt = true; // TBT is Medha's whole objective
        return measureMaxGoodput(runner, criteria, search);
    };

    double medha_goodput = goodput_of(medhaScenario());
    double qos_goodput = goodput_of(qoserveDcOnlyScenario());
    bench::printRule(46);
    std::printf("goodput: Medha %.3f QPS, QoServe(DC-only) %.3f QPS "
                "(+%.0f%%; paper: 0.26 vs 0.32, +23%%)\n",
                medha_goodput, qos_goodput,
                100.0 * (qos_goodput / medha_goodput - 1.0));
}

void
partB()
{
    std::printf("\n(b) PolyServe partitioned deployments vs QoServe "
                "colocation (50 QPS total, Az-Conv)\n\n");

    TierTable two_classes = {
        interactiveTier(0, "Q1-50ms", 6.0, fromMillis(50.0)),
        interactiveTier(1, "Q2-100ms", 6.0, fromMillis(100.0)),
    };

    // Per-class goodput of a dedicated PolyServe deployment (Medha
    // chunking tuned to that class's TBT).
    auto polyserve_class_goodput = [&](int tier_id) {
        Scenario sc = medhaScenario();
        sc.tiers = two_classes;
        sc.tierMix = tier_id == 0 ? std::vector<double>{1.0, 0.0}
                                  : std::vector<double>{0.0, 1.0};
        sc.dataset = azureConv();
        sc.duration = 1200.0;
        sc.serving.medha.tbtTarget = tier_id == 0 ? 0.05 : 0.10;
        GoodputSearch search;
        search.maxQps = 32.0;
        search.resolutionQps = 0.25;
        GoodputCriteria criteria;
        criteria.includeTbt = true; // classes differ only in TBT
        return bench::goodput(sc, search, criteria);
    };
    double class_goodput[2] = {polyserve_class_goodput(0),
                               polyserve_class_goodput(1)};

    std::printf("%-22s %18s %18s\n", "mix (Q1% / Q2%)",
                "PolyServe GPUs", "QoServe GPUs");
    bench::printRule(60);

    const double total_qps = 50.0;
    for (double q1_frac : {0.9, 0.7, 0.5, 0.3, 0.1}) {
        int poly_gpus =
            replicasForLoad(total_qps * q1_frac, class_goodput[0]) +
            replicasForLoad(total_qps * (1.0 - q1_frac),
                            class_goodput[1]);

        Scenario shared;
        shared.serving.policy = Policy::QoServe;
        shared.tiers = two_classes;
        shared.tierMix = {q1_frac, 1.0 - q1_frac};
        shared.dataset = azureConv();
        shared.duration = 1200.0;
        GoodputSearch search;
        search.maxQps = 32.0;
        search.resolutionQps = 0.25;
        GoodputCriteria criteria;
        criteria.includeTbt = true;
        double shared_goodput = bench::goodput(shared, search, criteria);
        int qos_gpus = replicasForLoad(total_qps, shared_goodput);

        std::printf("%4.0f / %-15.0f %18d %18d\n", 100.0 * q1_frac,
                    100.0 * (1.0 - q1_frac), poly_gpus, qos_gpus);
    }

    std::printf("\nPolyServe bins classes into dedicated deployments "
                "(goodputs: %.2f QPS @50 ms, %.2f QPS @100 ms);\n"
                "QoServe colocates and exploits cross-class slack.\n",
                class_goodput[0], class_goodput[1]);
}

void
run()
{
    bench::printBanner("Comparison with concurrent work",
                       "Figure 15 and Section 4.5");
    partA();
    partB();
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
