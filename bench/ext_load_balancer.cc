/**
 * @file
 * Extension study: load-balancing policies across replicas.
 *
 * The paper's deployments use round-robin balancing (§4.1.1). This
 * ablation measures what smarter balancing adds on top of QoServe:
 * round-robin vs least-loaded vs shortest-queue (by pending prefill
 * tokens) on a 4-replica shared cluster across loads. Because
 * request sizes are heavy-tailed, round-robin occasionally stacks
 * two huge prompts on one replica; queue-aware balancing smooths
 * that out and trims tail latency near saturation.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

RunSummary
runWith(LoadBalancePolicy lb, double qps)
{
    Scenario sc;
    sc.serving.policy = Policy::QoServe;
    sc.serving.numReplicas = 4;
    sc.loadBalance = lb;
    sc.qps = qps;
    sc.duration = 900.0;
    sc.seed = 79;
    return bench::runOnce(sc);
}

void
run()
{
    bench::printBanner("Load balancing across replicas",
                       "round-robin baseline of §4.1.1 (extension)");

    const LoadBalancePolicy policies[] = {
        LoadBalancePolicy::RoundRobin,
        LoadBalancePolicy::LeastLoaded,
        LoadBalancePolicy::ShortestQueue,
    };

    for (const char *metric : {"p99 latency (s)", "violations (%)"}) {
        std::printf("\n%s — QoServe on 4 shared replicas (Az-Code)\n",
                    metric);
        std::printf("%-16s", "policy \\ QPS");
        for (double qps : {12.0, 16.0, 20.0, 24.0})
            std::printf("%10.0f", qps);
        std::printf("\n");
        bench::printRule(58);
        for (LoadBalancePolicy lb : policies) {
            std::printf("%-16s", loadBalanceName(lb));
            for (double qps : {12.0, 16.0, 20.0, 24.0}) {
                RunSummary s = runWith(lb, qps);
                double v = metric[0] == 'p'
                               ? s.p99Latency
                               : 100.0 * s.violationRate;
                std::printf("%10.2f", v);
            }
            std::printf("\n");
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
