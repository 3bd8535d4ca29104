/**
 * @file
 * Figure 5: eager relegation vs no relegation.
 *
 * Runs QoServe with and without eager relegation across loads
 * straddling capacity and prints the median headline latency plus
 * the fraction of requests relegated. The paper's claim: relegating
 * ~5% of requests keeps the median stable under overload where the
 * no-relegation system's latency grows by orders of magnitude.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

void
run()
{
    bench::printBanner("Eager relegation ablation", "Figure 5");

    std::printf("%-10s %-22s %-22s %-14s\n", "QPS",
                "median latency (s)", "median latency (s)", "relegated");
    std::printf("%-10s %-22s %-22s %-14s\n", "",
                "no relegation", "eager relegation", "(%)");
    bench::printRule(70);

    // The paper sweeps 3-4 QPS around *its* capacity knee; this
    // simulator's QoServe knee sits near 6 QPS, so the sweep spans
    // the same relative positions.
    for (double qps : {4.0, 5.0, 5.5, 6.0, 6.5, 7.0, 8.0}) {
        Scenario with;
        with.serving.policy = Policy::QoServe;
        with.qps = qps;
        with.duration = 1200.0;
        with.seed = 11;

        Scenario without = with;
        without.serving.qoserve.enableEagerRelegation = false;

        RunSummary s_with = bench::runOnce(with);
        RunSummary s_without = bench::runOnce(without);

        std::printf("%-10.2f %-22.3f %-22.3f %-14.2f\n", qps,
                    s_without.p50Latency, s_with.p50Latency,
                    100.0 * s_with.relegatedFraction);
    }

    std::printf("\nExpected shape: past the capacity knee the "
                "no-relegation median explodes (cascading\nviolations) "
                "while eager relegation keeps it stable by deferring a "
                "few percent of requests.\n");
}

} // namespace
} // namespace qoserve

int
main()
{
    qoserve::run();
    return 0;
}
