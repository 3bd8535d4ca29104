/**
 * @file
 * Figure 2: traditional multi-SLA scheduling policies vs QoServe.
 *
 * Sweeps load for FCFS, SJF, SRPF, EDF and QoServe on Az-Code /
 * Llama3-8B with the Table 3 tier mix and prints, for the strictest
 * QoS class: median latency, tail (p99) latency, overall deadline
 * violations and long-request deadline violations. Expected shape:
 * FCFS breaks first; EDF is perfect at low load but collapses past
 * the knee; SJF/SRPF hold the median but starve long requests even
 * at low load; QoServe minimizes violations across the whole range.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

struct PolicyResult
{
    double median = 0.0;
    double tail = 0.0;
    double violations = 0.0;
    double long_violations = 0.0;
};

PolicyResult
toPolicyResult(const RunSummary &s)
{
    PolicyResult r;
    r.violations = 100.0 * s.violationRate;
    r.long_violations = 100.0 * s.longViolationRate;
    // Latency of the strictest class (Q1 TTFT).
    for (const auto &tier : s.tiers) {
        if (tier.tierId == 0) {
            r.median = tier.p50Ttft;
            r.tail = tier.p99Ttft;
        }
    }
    return r;
}

void
run(const bench::BenchOptions &opts)
{
    bench::printBanner(
        "Traditional policies vs QoServe across load",
        "Figure 2 (median/tail latency, violations, long-job fairness)");

    const Policy policies[] = {Policy::SarathiFcfs, Policy::SarathiSjf,
                               Policy::SarathiSrpf, Policy::SarathiEdf,
                               Policy::QoServe};
    const double loads[] = {2.0, 3.0, 4.0, 5.0, 6.0};

    // All 25 (policy, QPS) runs are independent: fan them out.
    std::vector<bench::RunPoint> points;
    for (int p = 0; p < 5; ++p) {
        for (int l = 0; l < 5; ++l) {
            bench::RunPoint pt;
            pt.scenario.serving.policy = policies[p];
            pt.scenario.duration = 1200.0;
            pt.scenario.seed = 7;
            pt.scenario.qps = loads[l];
            pt.label = policyName(policies[p]);
            points.push_back(std::move(pt));
        }
    }

    bench::WallTimer suite;
    std::vector<bench::RunResult> sweep =
        bench::runMany(points, opts.jobs);
    double total_wall = suite.seconds();

    PolicyResult results[5][5];
    for (int p = 0; p < 5; ++p)
        for (int l = 0; l < 5; ++l)
            results[p][l] = toPolicyResult(sweep[p * 5 + l].summary);

    struct MetricView
    {
        const char *title;
        double PolicyResult::*field;
    };
    const MetricView metrics[] = {
        {"Q1 median latency (s)", &PolicyResult::median},
        {"Q1 p99 latency (s)", &PolicyResult::tail},
        {"deadline violations (%)", &PolicyResult::violations},
        {"long-request violations (%)", &PolicyResult::long_violations},
    };

    for (const MetricView &metric : metrics) {
        std::printf("\n%s\n", metric.title);
        std::printf("%-14s", "policy \\ QPS");
        for (double q : loads)
            std::printf("%10.1f", q);
        std::printf("\n");
        bench::printRule(64);
        for (int p = 0; p < 5; ++p) {
            std::printf("%-14s", policyName(policies[p]));
            for (int l = 0; l < 5; ++l)
                std::printf("%10.2f", results[p][l].*metric.field);
            std::printf("\n");
        }
    }
    std::printf("\nSLO: Q1 TTFT = 6 s. Expected shape: FCFS degrades "
                "first; EDF perfect until the knee then collapses;\n"
                "SJF/SRPF keep medians low but violate long requests "
                "even at low load; QoServe stays lowest overall.\n");

    bench::writeBenchJson(opts, bench::toJsonRuns(points, sweep),
                          total_wall);
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    qoserve::run(qoserve::bench::parseBenchArgs("fig02_policies", argc,
                                                argv));
    return 0;
}
