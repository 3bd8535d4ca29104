/**
 * @file
 * Table 5: impact of QoServe's individual optimizations.
 *
 * Starting from the Sarathi-EDF baseline, adds dynamic chunking
 * (DC), then eager relegation (ER), then hybrid prioritization (HP)
 * and reports (a) the optimal sustainable load (goodput QPS) and its
 * incremental gain, and (b) deadline violations at a fixed high load
 * (QPS 10 — the same ~65% overshoot of QoServe capacity as the
 * paper's QPS 6 over its 3.65 capacity) and the incremental improvement. Expected shape: DC buys
 * ~20% goodput; ER mostly buys overload robustness; HP's gain is
 * marginal at optimal load but significant under overload.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

Scenario
scenarioFor(int stage)
{
    Scenario sc;
    sc.duration = 1200.0;
    sc.seed = 41;
    if (stage == 0) {
        sc.serving.policy = Policy::SarathiEdf;
        return sc;
    }
    sc.serving.policy = Policy::QoServe;
    sc.serving.qoserve.enableDynamicChunking = true;
    sc.serving.qoserve.enableEagerRelegation = stage >= 2;
    sc.serving.qoserve.enableHybridPriority = stage >= 3;
    return sc;
}

void
run(const bench::BenchOptions &opts)
{
    bench::printBanner("Ablation of QoServe optimizations", "Table 5");

    const char *names[] = {"Sarathi-EDF", "QoServe (DC)",
                           "QoServe (DC+ER)", "QoServe (DC+ER+HP)"};

    // Eight independent computations: per stage, the goodput search
    // (tasks 0-3) and the fixed overload run at QPS 10 (tasks 4-7).
    bench::PredictorCache::instance().get(scenarioFor(1).serving);
    struct TaskResult
    {
        double value = 0.0;
        double wallSeconds = 0.0;
    };
    bench::WallTimer suite;
    std::vector<TaskResult> tasks = par::parallelMap(
        opts.jobs, std::size_t{8}, [&](std::size_t i) {
            int stage = static_cast<int>(i % 4);
            Scenario sc = scenarioFor(stage);
            bench::WallTimer timer;
            TaskResult res;
            if (i < 4) {
                GoodputSearch search;
                search.resolutionQps = 0.05;
                res.value = bench::goodput(sc, search);
            } else {
                sc.qps = 10.0;
                res.value = 100.0 * bench::runOnce(sc).violationRate;
            }
            res.wallSeconds = timer.seconds();
            return res;
        });
    double total_wall = suite.seconds();

    std::printf("%-20s %14s %9s %14s %9s\n", "config",
                "optimal QPS", "gain", "viol @QPS=10", "impr.");
    bench::printRule(72);

    double prev_qps = 0.0, prev_viol = 0.0;
    for (int stage = 0; stage < 4; ++stage) {
        double optimal = tasks[stage].value;
        double viol = tasks[stage + 4].value;

        if (stage == 0) {
            std::printf("%-20s %14.2f %9s %13.1f%% %9s\n", names[stage],
                        optimal, "-", viol, "-");
        } else {
            double gain = 100.0 * (optimal / prev_qps - 1.0);
            double impr = prev_viol > 0.0
                              ? 100.0 * (1.0 - viol / prev_viol)
                              : 0.0;
            std::printf("%-20s %14.2f %8.1f%% %13.1f%% %8.1f%%\n",
                        names[stage], optimal, gain, viol, impr);
        }
        prev_qps = optimal;
        prev_viol = viol;
    }

    std::printf("\nPaper: DC +20%% goodput; ER +9%% and -68%% "
                "violations at QPS 6; HP +1.4%% goodput\nbut -32%% "
                "violations under overload (DC: dynamic chunking, ER: "
                "eager relegation,\nHP: hybrid prioritization).\n");

    std::vector<bench::JsonRun> runs;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        bench::JsonRun jr;
        jr.label = std::string(names[i % 4]) +
                   (i < 4 ? "/goodput" : "/overload");
        jr.qps = i < 4 ? tasks[i].value : 10.0;
        jr.wallSeconds = tasks[i].wallSeconds;
        runs.push_back(std::move(jr));
    }
    bench::writeBenchJson(opts, runs, total_wall);
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    qoserve::run(qoserve::bench::parseBenchArgs("tab05_ablation", argc,
                                                argv));
    return 0;
}
