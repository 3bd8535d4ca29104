/**
 * @file
 * Figure 11: deadline violations across all jobs, split by request
 * length and by QoS bucket, as load varies.
 *
 * Same sweep as Figure 10; prints overall violations, short vs long
 * request violations (long = prompt >= p90), and per-tier
 * violations. Expected shape: QoServe holds zero violations to
 * ~30% higher load than Sarathi-EDF; SRPF sacrifices long requests
 * even at low load; FCFS/SRPF violate the strictest tier first
 * while EDF spreads violations across tiers.
 */

#include "bench_common.hh"

#include <map>

namespace qoserve {
namespace {

void
run(const bench::BenchOptions &opts)
{
    bench::printBanner("Deadline violations by length and tier",
                       "Figure 11");

    const Policy policies[] = {Policy::SarathiFcfs, Policy::SarathiSrpf,
                               Policy::SarathiEdf, Policy::QoServe};
    const double loads[] = {2.0, 3.0, 4.0, 5.0, 6.0};

    std::vector<bench::RunPoint> points;
    for (int p = 0; p < 4; ++p) {
        for (int l = 0; l < 5; ++l) {
            bench::RunPoint pt;
            pt.scenario.serving.policy = policies[p];
            pt.scenario.duration = 1200.0;
            pt.scenario.seed = 23;
            pt.scenario.qps = loads[l];
            pt.label = policyName(policies[p]);
            points.push_back(std::move(pt));
        }
    }

    bench::WallTimer suite;
    std::vector<bench::RunResult> sweep =
        bench::runMany(points, opts.jobs);
    double total_wall = suite.seconds();

    std::map<int, std::map<int, RunSummary>> results;
    for (int p = 0; p < 4; ++p)
        for (int l = 0; l < 5; ++l)
            results[p][l] = sweep[p * 5 + l].summary;

    struct View
    {
        const char *title;
        double (*get)(const RunSummary &, int tier);
        int tier;
    };
    auto overall = [](const RunSummary &s, int) {
        return 100.0 * s.violationRate;
    };
    auto shorts = [](const RunSummary &s, int) {
        return 100.0 * s.shortViolationRate;
    };
    auto longs = [](const RunSummary &s, int) {
        return 100.0 * s.longViolationRate;
    };
    auto tier = [](const RunSummary &s, int t) {
        for (const auto &ts : s.tiers)
            if (ts.tierId == t)
                return 100.0 * ts.violationRate;
        return 0.0;
    };

    const View views[] = {
        {"(a) Overall violations (%)", overall, 0},
        {"(b) Short-request violations (%)", shorts, 0},
        {"(c) Long-request violations (%)", longs, 0},
        {"(d) QoS 1 violations (%)", tier, 0},
        {"(e) QoS 2 violations (%)", tier, 1},
        {"(f) QoS 3 violations (%)", tier, 2},
    };

    for (const View &view : views) {
        std::printf("\n%s\n", view.title);
        std::printf("%-14s", "policy \\ QPS");
        for (double q : loads)
            std::printf("%10.1f", q);
        std::printf("\n");
        bench::printRule(64);
        for (int p = 0; p < 4; ++p) {
            std::printf("%-14s", policyName(policies[p]));
            for (int l = 0; l < 5; ++l)
                std::printf("%10.2f", view.get(results[p][l], view.tier));
            std::printf("\n");
        }
    }

    bench::writeBenchJson(opts, bench::toJsonRuns(points, sweep),
                          total_wall);
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    qoserve::run(qoserve::bench::parseBenchArgs("fig11_violations", argc,
                                                argv));
    return 0;
}
