/**
 * @file
 * Figure 8: goodput under prefill-decode disaggregation.
 *
 * QoServe's prioritization and eager relegation apply directly to
 * the prefill nodes of disaggregated serving (§4.1.3): requests are
 * reduced to their prefill stage (decode pools are identical across
 * schedulers), the chunk is opened to 8K since no TBT constrains the
 * prefill node, and we report the max goodput per prefill replica on
 * the Az-Conv trace. Expected shape: QoServe above both baselines,
 * with smaller gains than colocation because dynamic chunking cannot
 * be exploited beyond the large default chunk.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

void
run()
{
    bench::printBanner("Prefill goodput under PD disaggregation",
                       "Figure 8");

    struct HwCase
    {
        const char *label;
        ReplicaHwConfig hw;
    };
    const HwCase hw_cases[] = {
        {"Llama3-8B (TP1-A100)", llama3_8b_a100_tp1()},
        {"Qwen-7B (TP2-A100)", qwen_7b_a100_tp2()},
        {"Llama3-70B (TP4-H100)", llama3_70b_h100_tp4()},
    };
    const Policy policies[] = {Policy::SarathiFcfs, Policy::SarathiEdf,
                               Policy::QoServe};

    std::printf("%-24s %14s %14s %14s\n", "replica",
                "Disagg-FCFS", "Disagg-EDF", "Disagg-QoServe");
    bench::printRule(72);

    for (const HwCase &hw_case : hw_cases) {
        double results[3] = {0, 0, 0};
        for (int p = 0; p < 3; ++p) {
            Scenario sc;
            sc.serving.policy = policies[p];
            sc.serving.hw = hw_case.hw;
            sc.dataset = azureConv();
            sc.duration = 1500.0;
            sc.seed = 17;
            // §4.1.3: large default chunk of 8K on prefill nodes.
            sc.serving.base.fixedChunkTokens = 8192;
            sc.serving.qoserve.maxChunkTokens = 8192;

            GoodputSearch search;
            search.maxQps = 128.0;
            search.resolutionQps = 0.25;

            LoadRunner runner = [&sc](double qps) {
                Scenario probe = sc;
                probe.qps = qps;
                return bench::simulate(probe,
                                       toPrefillOnlyTrace(buildTrace(probe)))
                    .summary;
            };
            results[p] = measureMaxGoodput(runner, {}, search);
        }
        std::printf("%-24s %14.2f %14.2f %14.2f\n", hw_case.label,
                    results[0], results[1], results[2]);
    }

    std::printf("\nGoodput = max QPS per prefill replica with <= 1%% "
                "violations; decode pools are identical\nacross "
                "schedulers and excluded (Section 4.1.3).\n");
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
