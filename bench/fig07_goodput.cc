/**
 * @file
 * Figure 7: maximum goodput per replica in a shared cluster across
 * models, hardware and datasets.
 *
 * For each Table 1 configuration (Llama3-8B/A100-TP1, Qwen-7B/
 * A100-TP2, Llama3-70B/H100-TP4) and each Table 2 dataset, measures
 * the per-replica goodput (max QPS with <= 1% SLO violations) of
 * Sarathi-FCFS, Sarathi-EDF and QoServe under the Table 3 tier mix.
 * Expected shape: QoServe 1.5-2.4x over Sarathi-FCFS and 20-40%
 * over Sarathi-EDF.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

void
run(const bench::BenchOptions &opts)
{
    bench::printBanner("Per-replica goodput in a shared cluster",
                       "Figure 7");

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
    const char *datasets[] = {"azure-code", "azure-conv", "sharegpt"};
    const Policy policies[] = {Policy::SarathiFcfs, Policy::SarathiEdf,
                               Policy::QoServe};

    // The 27 (hw, dataset, policy) goodput searches are independent:
    // fan them out at the outer level and keep each search's inner
    // probes serial. Pre-train the three predictors first so sweep
    // tasks never wait on the cache lock.
    struct Cell
    {
        int hw;
        int ds;
        int policy;
    };
    std::vector<Cell> cells;
    for (int h = 0; h < 3; ++h)
        for (int d = 0; d < 3; ++d)
            for (int p = 0; p < 3; ++p)
                cells.push_back({h, d, p});

    std::vector<Scenario> scenarios;
    for (const Cell &cell : cells) {
        Scenario sc;
        sc.serving.policy = policies[cell.policy];
        sc.serving.hw = hw_cases[cell.hw].hw;
        sc.dataset = datasetByName(datasets[cell.ds]);
        sc.duration = 1500.0;
        sc.seed = 13;
        bench::PredictorCache::instance().get(sc.serving);
        scenarios.push_back(std::move(sc));
    }

    struct CellResult
    {
        double goodput = 0.0;
        double wallSeconds = 0.0;
    };
    bench::WallTimer suite;
    std::vector<CellResult> sweep = par::parallelMap(
        opts.jobs, cells.size(), [&](std::size_t i) {
            GoodputSearch search;
            search.resolutionQps = 0.125;
            bench::WallTimer timer;
            CellResult res;
            res.goodput = bench::goodput(scenarios[i], search);
            res.wallSeconds = timer.seconds();
            return res;
        });
    double total_wall = suite.seconds();

    auto result = [&](int h, int d, int p) {
        return sweep[static_cast<std::size_t>((h * 3 + d) * 3 + p)];
    };

    for (int h = 0; h < 3; ++h) {
        std::printf("\n%s\n", hw_cases[h].label);
        std::printf("%-12s %14s %14s %14s %9s %9s\n", "dataset",
                    "Sarathi-FCFS", "Sarathi-EDF", "QoServe",
                    "vs FCFS", "vs EDF");
        bench::printRule(78);
        for (int d = 0; d < 3; ++d) {
            auto ratio = [](double num, double den) {
                return den > 0.0 ? num / den : 0.0;
            };
            std::printf("%-12s %14.2f %14.2f %14.2f %8.2fx %8.2fx\n",
                        datasets[d], result(h, d, 0).goodput,
                        result(h, d, 1).goodput, result(h, d, 2).goodput,
                        ratio(result(h, d, 2).goodput,
                              result(h, d, 0).goodput),
                        ratio(result(h, d, 2).goodput,
                              result(h, d, 1).goodput));
        }
    }

    std::printf("\nGoodput = max QPS per replica with <= 1%% deadline "
                "violations (Section 4.1.2).\nPaper: QoServe achieves "
                "1.5-2.4x over Sarathi-FCFS and 20-40%% over "
                "Sarathi-EDF.\n");

    std::vector<bench::JsonRun> runs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        bench::JsonRun jr;
        jr.label = std::string(hw_cases[cells[i].hw].label) + "/" +
                   datasets[cells[i].ds] + "/" +
                   policyName(policies[cells[i].policy]);
        jr.qps = sweep[i].goodput;
        jr.wallSeconds = sweep[i].wallSeconds;
        runs.push_back(std::move(jr));
    }
    bench::writeBenchJson(opts, runs, total_wall);
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    qoserve::run(qoserve::bench::parseBenchArgs("fig07_goodput", argc,
                                                argv));
    return 0;
}
