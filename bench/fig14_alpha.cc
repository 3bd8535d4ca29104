/**
 * @file
 * Figure 14: impact of the hybrid-prioritization parameter alpha.
 *
 * Sweeps alpha in {0, 2, 4} ms/token across load and prints the
 * median latency and overall deadline violations, plus long-request
 * violations to expose the fairness cost of large alpha. Expected
 * shape: larger alpha (more SRPF-like) cuts median latency and
 * high-load violations but penalizes long requests; alpha = 0 (pure
 * EDF) is best at low load and collapses first.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

void
run(const bench::BenchOptions &opts)
{
    bench::printBanner("Hybrid prioritization alpha sweep", "Figure 14");

    const double alphas[] = {0.0, 2.0, 4.0};
    const double loads[] = {2.0, 3.0, 4.0, 5.0, 6.0};

    // Row 3 is the load-adaptive configuration from §3.6 (alpha=1
    // ms/token at low load ramping to 8 under overload).
    std::vector<bench::RunPoint> points;
    for (int a = 0; a < 4; ++a) {
        for (int l = 0; l < 5; ++l) {
            bench::RunPoint pt;
            pt.scenario.serving.policy = Policy::QoServe;
            if (a < 3) {
                pt.scenario.serving.qoserve.alphaMsPerToken = alphas[a];
                pt.label = "alpha=" + std::to_string(alphas[a]);
            } else {
                pt.scenario.serving.qoserve.adaptiveAlpha = true;
                pt.scenario.serving.qoserve.alphaMsPerToken = 8.0;
                pt.label = "alpha=adaptive";
            }
            pt.scenario.duration = 1200.0;
            pt.scenario.seed = 31;
            pt.scenario.qps = loads[l];
            points.push_back(std::move(pt));
        }
    }

    bench::WallTimer suite;
    std::vector<bench::RunResult> sweep =
        bench::runMany(points, opts.jobs);
    double total_wall = suite.seconds();

    RunSummary results[4][5];
    for (int a = 0; a < 4; ++a)
        for (int l = 0; l < 5; ++l)
            results[a][l] = sweep[a * 5 + l].summary;

    struct View
    {
        const char *title;
        double (*get)(const RunSummary &);
    };
    const View views[] = {
        {"median latency (s)",
         [](const RunSummary &s) { return s.p50Latency; }},
        {"deadline violations (%)",
         [](const RunSummary &s) { return 100.0 * s.violationRate; }},
        {"long-request violations (%)",
         [](const RunSummary &s) { return 100.0 * s.longViolationRate; }},
    };

    for (const View &view : views) {
        std::printf("\n%s\n", view.title);
        std::printf("%-16s", "alpha \\ QPS");
        for (double q : loads)
            std::printf("%10.1f", q);
        std::printf("\n");
        bench::printRule(66);
        for (int a = 0; a < 4; ++a) {
            if (a < 3)
                std::printf("alpha = %-8.0f", alphas[a]);
            else
                std::printf("%-16s", "adaptive 1->8");
            for (int l = 0; l < 5; ++l)
                std::printf("%10.2f", view.get(results[a][l]));
            std::printf("\n");
        }
    }

    std::printf("\nDeployment guidance from the paper: alpha ~1 "
                "ms/token at low load (protects tails),\nalpha ~8 "
                "ms/token under overload (minimizes violations); "
                "load-adaptive in production.\n");

    bench::writeBenchJson(opts, bench::toJsonRuns(points, sweep),
                          total_wall);
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    qoserve::run(qoserve::bench::parseBenchArgs("fig14_alpha", argc,
                                                argv));
    return 0;
}
