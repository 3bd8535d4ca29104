/**
 * @file
 * Figure 10: latency of requests across the three QoS buckets as
 * load varies.
 *
 * For Sarathi-FCFS, Sarathi-SRPF, Sarathi-EDF and QoServe on
 * Az-Code / Llama3-8B, prints the p50 and p95 headline latency per
 * QoS bucket (TTFT for Q1, TTLT for Q2/Q3) across a QPS sweep, with
 * the SLO line for reference. Expected shape: every scheme has a
 * knee where queueing explodes; QoServe's knee sits at up to ~40%
 * higher load while meeting tail SLOs in each bucket.
 */

#include "bench_common.hh"

#include <map>

namespace qoserve {
namespace {

void
run(const bench::BenchOptions &opts)
{
    bench::printBanner("Per-tier latency vs load", "Figure 10");

    const Policy policies[] = {Policy::SarathiFcfs, Policy::SarathiSrpf,
                               Policy::SarathiEdf, Policy::QoServe};
    const double loads[] = {2.0, 3.0, 4.0, 5.0, 6.0};
    const double slos[] = {6.0, 600.0, 1800.0};

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

    // results[policy][load] = per-tier summaries.
    std::map<int, std::map<int, RunSummary>> results;
    for (int p = 0; p < 4; ++p)
        for (int l = 0; l < 5; ++l)
            results[p][l] = sweep[p * 5 + l].summary;

    for (int tier = 0; tier < 3; ++tier) {
        for (bool tail : {false, true}) {
            std::printf("\nQoS %d %s latency (s), SLO = %.0f s (%s)\n",
                        tier + 1, tail ? "p95" : "p50", slos[tier],
                        tier == 0 ? "TTFT" : "TTLT");
            std::printf("%-14s", "policy \\ QPS");
            for (double q : loads)
                std::printf("%10.1f", q);
            std::printf("\n");
            bench::printRule(64);
            for (int p = 0; p < 4; ++p) {
                std::printf("%-14s", policyName(policies[p]));
                for (int l = 0; l < 5; ++l) {
                    double v = 0.0;
                    for (const auto &ts : results[p][l].tiers) {
                        if (ts.tierId != tier)
                            continue;
                        if (tier == 0)
                            v = tail ? ts.p95Ttft : ts.p50Ttft;
                        else
                            v = tail ? ts.p95Ttlt : ts.p50Ttlt;
                    }
                    std::printf("%10.2f", v);
                }
                std::printf("\n");
            }
        }
    }

    std::printf("\nTBT plots are omitted as in the paper: across all "
                "schemes TBT deadline misses stay\nnegligible by "
                "construction of the chunk size.\n");

    bench::writeBenchJson(opts, bench::toJsonRuns(points, sweep),
                          total_wall);
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    qoserve::run(qoserve::bench::parseBenchArgs("fig10_latency", argc,
                                                argv));
    return 0;
}
