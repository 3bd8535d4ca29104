/**
 * @file
 * Figure 13: rolling p99 latency of high-priority requests during
 * the diurnal workload.
 *
 * Same workload as Figure 12; prints the rolling (60 s window) p99
 * headline latency of important requests per QoS bucket for
 * Sarathi-FCFS, Sarathi-EDF and QoServe. Expected shape: FCFS never
 * recovers after the first burst; EDF absorbs the first burst and
 * collapses on a later one; QoServe rides every burst and returns
 * to baseline in the troughs.
 */

#include "bench_common.hh"

#include <map>
#include <vector>

namespace qoserve {
namespace {

void
run()
{
    bench::printBanner(
        "Rolling p99 latency of important requests over time",
        "Figure 13");

    DiurnalArrivals arrivals(2.0, 5.0, 300.0);
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(29)
                      .lowPriorityFraction(0.2)
                      .build(arrivals, 2400.0);

    const Policy policies[] = {Policy::SarathiFcfs, Policy::SarathiEdf,
                               Policy::QoServe};

    // series[policy][tier] = rolling points.
    std::map<int, std::map<int, std::vector<RollingPoint>>> series;
    for (int p = 0; p < 3; ++p) {
        Scenario sc;
        sc.serving.policy = policies[p];
        ScenarioResult res = bench::simulate(sc, trace);
        for (int tier = 0; tier < 3; ++tier) {
            series[p][tier] =
                rollingLatency(res.cluster->metrics(), 60.0, 99.0, tier,
                               /*important=*/true);
        }
    }

    const double slos[] = {6.0, 600.0, 1800.0};
    for (int tier = 0; tier < 3; ++tier) {
        std::printf("\nQoS %d rolling p99 (s) by arrival window, "
                    "SLO = %.0f s\n",
                    tier + 1, slos[tier]);
        std::printf("%-12s %14s %14s %14s\n", "window start",
                    "Sarathi-FCFS", "Sarathi-EDF", "QoServe");
        bench::printRule(58);

        // Windows align across schemes (same arrivals).
        const auto &ref = series[0][tier];
        for (std::size_t w = 0; w < ref.size(); w += 4) {
            double t = ref[w].windowStart.seconds();
            double vals[3] = {0, 0, 0};
            for (int p = 0; p < 3; ++p) {
                for (const auto &pt : series[p][tier]) {
                    if (pt.windowStart.seconds() == t)
                        vals[p] = pt.value;
                }
            }
            std::printf("%-12.0f %14.2f %14.2f %14.2f\n", t, vals[0],
                        vals[1], vals[2]);
        }
    }
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
