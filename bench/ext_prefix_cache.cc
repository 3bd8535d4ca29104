/**
 * @file
 * Extension study: shared-prefix KV cache reuse.
 *
 * The paper's workloads treat every prompt as unique content; real
 * serving traffic repeats system prompts and re-sends conversation
 * history, so large prompt prefixes recur verbatim. This study gives
 * a QoServe deployment a radix-tree prefix cache over the paged KV
 * pool (DESIGN.md §9) and measures what prefix reuse buys: prefill
 * work avoided, TTFT, SLO violations and sustainable goodput, as a
 * function of how much of the traffic shares prefixes, how much KV
 * memory the cache may hold, and whether the cluster front door
 * routes requests to the replica already holding their prefix.
 */

#include "bench_common.hh"

#include <string_view>
#include <vector>

#include "cluster/capacity.hh"

namespace qoserve {
namespace {

struct CacheRun
{
    RunSummary summary;
    double meanTtft = 0.0;
    PrefixCacheStats cache;
};

Trace
makeSharedTrace(double share_ratio, double qps, SimDuration duration,
                std::uint64_t seed = bench::kSeed)
{
    SharedPrefixConfig sp;
    sp.shareRatio = share_ratio;
    sp.numPools = 8;
    sp.multiTurnFrac = 0.5;
    return TraceBuilder()
        .dataset(azureCode())
        .seed(seed)
        .sharedPrefix(sp)
        .build(PoissonArrivals(qps), duration);
}

CacheRun
runWith(const Trace &trace, bool cache_on, double capacity_frac,
        bool affinity, int replicas)
{
    Scenario sc;
    ServingConfig &cfg = sc.serving;
    cfg.policy = Policy::QoServe;
    cfg.useForestPredictor = false; // oracle keeps the sweeps fast
    cfg.numReplicas = replicas;
    cfg.prefixCache.enabled = cache_on;
    if (cache_on)
        cfg.prefixCache.capacityFrac = capacity_frac;
    cfg.cacheAffinityRouting = affinity;

    auto sim = bench::simulate(sc, trace).cluster;

    CacheRun out;
    out.summary = summarize(sim->metrics());
    double ttft_sum = 0.0;
    std::size_t served = 0;
    for (const RequestRecord &r : sim->metrics().records()) {
        if (r.firstTokenTime == kTimeNever)
            continue;
        ttft_sum += r.firstTokenTime - r.spec.arrival;
        ++served;
    }
    out.meanTtft = served == 0 ? 0.0
                               : ttft_sum / static_cast<double>(served);
    for (std::size_t i = 0; i < sim->numReplicas(); ++i) {
        const PrefixCacheStats &s = sim->replica(i).prefixCache().stats();
        out.cache.lookups += s.lookups;
        out.cache.hits += s.hits;
        out.cache.tokensAttached += s.tokensAttached;
        out.cache.cowCopies += s.cowCopies;
        out.cache.blocksInserted += s.blocksInserted;
        out.cache.blocksEvicted += s.blocksEvicted;
    }
    return out;
}

void
shareRatioSweep()
{
    const double ratios[] = {0.0, 0.25, 0.5, 0.75};
    std::printf("\ncache on vs off across prefix share ratios "
                "(1 replica, Az-Code @ 8 QPS, capacity 30%%)\n");
    std::printf("%-12s%12s%12s%10s%10s%12s%10s\n", "share", "mean TTFT",
                "TTFT (off)", "hit%", "saved%", "cow-copies", "viol%");
    bench::printRule(78);
    for (double ratio : ratios) {
        Trace trace = makeSharedTrace(ratio, 8.0, 300.0);
        CacheRun off = runWith(trace, false, 0.0, false, 1);
        CacheRun on = runWith(trace, true, 0.3, false, 1);
        std::printf(
            "%-12.2f%12.3f%12.3f%10.1f%10.1f%12lld%10.2f\n", ratio,
            on.meanTtft, off.meanTtft,
            100.0 * on.summary.prefixHitFraction,
            100.0 * on.summary.prefixTokensSavedFraction,
            static_cast<long long>(on.cache.cowCopies),
            100.0 * on.summary.violationRate);
    }
}

void
capacitySweep()
{
    const double fracs[] = {0.05, 0.1, 0.25, 0.5};
    std::printf("\ncache capacity vs reuse (share ratio 0.6, 1 replica, "
                "Az-Code @ 8 QPS)\n");
    std::printf("%-12s%10s%10s%12s%12s%12s\n", "capacity", "hit%",
                "saved%", "inserted", "evicted", "mean TTFT");
    bench::printRule(68);
    Trace trace = makeSharedTrace(0.6, 8.0, 300.0);
    for (double frac : fracs) {
        CacheRun r = runWith(trace, true, frac, false, 1);
        std::printf("%-12.2f%10.1f%10.1f%12lld%12lld%12.3f\n", frac,
                    100.0 * r.summary.prefixHitFraction,
                    100.0 * r.summary.prefixTokensSavedFraction,
                    static_cast<long long>(r.cache.blocksInserted),
                    static_cast<long long>(r.cache.blocksEvicted),
                    r.meanTtft);
    }
}

void
affinitySweep()
{
    std::printf("\ncache-affinity routing (share ratio 0.6, 4 replicas, "
                "Az-Code @ 16 QPS)\n");
    std::printf("%-24s%10s%10s%12s%12s\n", "front door", "hit%",
                "saved%", "mean TTFT", "viol%");
    bench::printRule(68);
    Trace trace = makeSharedTrace(0.6, 16.0, 300.0);
    struct Row
    {
        const char *name;
        bool cache;
        bool affinity;
    };
    const Row rows[] = {
        {"no cache", false, false},
        {"cache, blind rr", true, false},
        {"cache + affinity", true, true},
    };
    for (const Row &row : rows) {
        CacheRun r = runWith(trace, row.cache, 0.3, row.affinity, 4);
        std::printf("%-24s%10.1f%10.1f%12.3f%12.2f\n", row.name,
                    100.0 * r.summary.prefixHitFraction,
                    100.0 * r.summary.prefixTokensSavedFraction,
                    r.meanTtft, 100.0 * r.summary.violationRate);
    }
}

void
goodputComparison(int jobs)
{
    // The acceptance metric: at share ratio >= 0.5, prefix reuse must
    // raise the max QPS sustainable at <= 1% violations.
    std::printf("\ngoodput (max QPS at <=1%% violations), share ratio "
                "0.6, 1 replica\n");
    std::printf("%-24s%12s\n", "config", "goodput");
    bench::printRule(38);
    GoodputSearch search;
    search.startQps = 2.0;
    search.maxQps = 48.0;
    search.resolutionQps = 0.5;
    search.jobs = jobs;
    for (bool cache_on : {false, true}) {
        auto runner = [cache_on](double qps) {
            Trace trace = makeSharedTrace(0.6, qps, 240.0);
            return runWith(trace, cache_on, 0.3, false, 1).summary;
        };
        double qps = measureMaxGoodput(runner, {}, search);
        std::printf("%-24s%12.2f\n",
                    cache_on ? "prefix cache on" : "prefix cache off",
                    qps);
    }
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    using namespace qoserve;
    // --skip-goodput (CI smoke mode) is ours; everything else goes to
    // the shared bench parser.
    bool skip_goodput = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--skip-goodput")
            skip_goodput = true;
        else
            args.push_back(argv[i]);
    }
    bench::BenchOptions opts = bench::parseBenchArgs(
        "ext_prefix_cache", static_cast<int>(args.size()), args.data());
    bench::printBanner("Shared-prefix KV cache reuse",
                       "prefix-cache extension (DESIGN.md §9)");
    shareRatioSweep();
    capacitySweep();
    affinitySweep();
    if (skip_goodput)
        std::printf("\ngoodput comparison skipped (--skip-goodput)\n");
    else
        goodputComparison(opts.effectiveJobs());
    return 0;
}
