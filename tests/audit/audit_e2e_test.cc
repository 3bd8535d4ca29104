/**
 * @file
 * End-to-end audit runs: scaled-down versions of the Fig. 2 policy
 * sweep and the Table 5 feature ablation execute under a full-level,
 * violation-collecting auditor, and every run must finish with zero
 * invariant violations. This is the "the real simulator never trips
 * its own checks" half of the correctness tooling layer; the unit
 * tests prove the checks can trip at all.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "app/scenario.hh"
#include "audit/invariant_auditor.hh"
#include "fault/fault_injector.hh"
#include "workload/arrival.hh"
#include "workload/trace.hh"

namespace qoserve {
namespace {

/** A small but non-trivial trace (overload included). */
Trace
smallTrace(std::uint64_t seed = 7)
{
    return TraceBuilder()
        .seed(seed)
        .lowPriorityFraction(0.2)
        .buildCount(PoissonArrivals(6.0), 150);
}

/** A trace where most requests share prompt prefixes. */
Trace
sharedPrefixTrace(std::uint64_t seed = 7)
{
    SharedPrefixConfig sp;
    sp.shareRatio = 0.7;
    sp.numPools = 4;
    return TraceBuilder()
        .seed(seed)
        .sharedPrefix(sp)
        .buildCount(PoissonArrivals(6.0), 150);
}

/** Describe retained violations for failure messages. */
std::string
describe(const InvariantAuditor &auditor)
{
    std::ostringstream out;
    out << auditor.violationCount() << " violation(s):";
    for (const auto &v : auditor.violations()) {
        out << "\n  [" << v.invariant << "] t=" << v.when << " "
            << v.detail;
    }
    return out.str();
}

/**
 * Run @p cfg over @p trace with a full-level auditor attached and
 * return the auditor's verdict.
 */
void
expectCleanRun(const ServingConfig &cfg, const Trace &trace,
               const std::string &label)
{
    auto predictor = makePredictor(cfg);
    ClusterSim::Config ccfg;
    ccfg.replica.hw = cfg.hw;
    ccfg.replica.perfParams = cfg.perfParams;
    ccfg.replica.prefixCache = cfg.prefixCache;
    ccfg.cacheAffinityRouting = cfg.cacheAffinityRouting;
    ccfg.predictor = predictor.get();

    ClusterSim sim(ccfg, trace);
    InvariantAuditor::Options opts;
    opts.level = audit::CheckLevel::Full;
    opts.failFast = false;
    InvariantAuditor auditor(opts);
    sim.setAuditor(&auditor);
    sim.addReplicaGroup(cfg.numReplicas, makeSchedulerFactory(cfg));
    sim.run();

    EXPECT_GT(auditor.iterationsAudited(), 0u) << label;
    EXPECT_TRUE(auditor.clean()) << label << ": " << describe(auditor);
}

TEST(AuditE2E, PolicySweepRunsClean)
{
    // Fig. 2 in miniature: every policy family over the same trace.
    Trace trace = smallTrace();
    for (Policy policy :
         {Policy::QoServe, Policy::SarathiFcfs, Policy::SarathiEdf,
          Policy::SarathiSjf, Policy::SarathiSrpf, Policy::Medha,
          Policy::SlosServeDp}) {
        ServingConfig cfg;
        cfg.policy = policy;
        cfg.useForestPredictor = false; // Oracle: fast and exact.
        expectCleanRun(cfg, trace, policyName(policy));
    }
}

TEST(AuditE2E, FeatureAblationRunsClean)
{
    // Table 5 in miniature: QoServe with each feature toggled off.
    Trace trace = smallTrace(11);
    struct Variant
    {
        const char *name;
        void (*apply)(QoServeConfig &);
    };
    const Variant variants[] = {
        {"full", [](QoServeConfig &) {}},
        {"no-dynamic-chunking",
         [](QoServeConfig &q) { q.enableDynamicChunking = false; }},
        {"no-eager-relegation",
         [](QoServeConfig &q) { q.enableEagerRelegation = false; }},
        {"no-hybrid-priority",
         [](QoServeConfig &q) { q.enableHybridPriority = false; }},
    };
    for (const Variant &variant : variants) {
        ServingConfig cfg;
        cfg.policy = Policy::QoServe;
        cfg.useForestPredictor = false;
        variant.apply(cfg.qoserve);
        expectCleanRun(cfg, trace, variant.name);
    }
}

TEST(AuditE2E, MultiReplicaSharedClusterRunsClean)
{
    ServingConfig cfg;
    cfg.policy = Policy::QoServe;
    cfg.numReplicas = 2;
    cfg.useForestPredictor = false;
    expectCleanRun(cfg, smallTrace(23), "2-replica shared");
}

TEST(AuditE2E, FaultedRunsAuditClean)
{
    // Crash/straggler injection at full check level: every injected
    // crash must satisfy the crash-release invariants (no KV block
    // survives, no request stranded) and the run must stay clean
    // end to end, including re-dispatched resumed requests.
    Trace trace = smallTrace(37);
    for (Policy policy : {Policy::QoServe, Policy::SarathiFcfs}) {
        ServingConfig cfg;
        cfg.policy = policy;
        cfg.useForestPredictor = false;
        auto predictor = makePredictor(cfg);
        ClusterSim::Config ccfg;
        ccfg.replica.hw = cfg.hw;
        ccfg.replica.perfParams = cfg.perfParams;
        ccfg.predictor = predictor.get();

        ClusterSim sim(ccfg, trace);
        InvariantAuditor::Options opts;
        opts.level = audit::CheckLevel::Full;
        opts.failFast = false;
        InvariantAuditor auditor(opts);
        sim.setAuditor(&auditor);
        sim.addReplicaGroup(2, makeSchedulerFactory(cfg));

        FaultConfig fc;
        fc.crashMtbf = 8.0;
        fc.crashMttr = 3.0;
        fc.stragglerMtbf = 15.0;
        fc.stragglerDuration = 4.0;
        fc.stragglerFactor = 2.0;
        FaultInjector injector(fc, DomainConfig{}, sim);
        sim.run();

        ASSERT_GT(injector.stats().crashes, 0u)
            << policyName(policy);
        EXPECT_TRUE(auditor.clean())
            << policyName(policy) << ": " << describe(auditor);
    }
}

TEST(AuditE2E, KvPressureRunsClean)
{
    // A replica with room for only 12k KV tokens: requests are
    // KV-preempted, release their slots and open fresh ones when
    // rescheduled, so slot reuse runs under the full-level slot
    // ownership checks every iteration.
    Trace trace = smallTrace(41);
    for (Policy policy : {Policy::QoServe, Policy::SarathiFcfs}) {
        ServingConfig cfg;
        cfg.policy = policy;
        cfg.useForestPredictor = false;
        std::int64_t spare = cfg.hw.kvCapacityTokens() - 12000;
        cfg.hw.gpu.memCapacity -=
            static_cast<double>(spare) *
            static_cast<double>(cfg.hw.model.kvBytesPerToken());
        ASSERT_EQ(cfg.hw.kvCapacityTokens(), 12000);
        auto predictor = makePredictor(cfg);
        ClusterSim::Config ccfg;
        ccfg.replica.hw = cfg.hw;
        ccfg.replica.perfParams = cfg.perfParams;
        ccfg.predictor = predictor.get();

        ClusterSim sim(ccfg, trace);
        InvariantAuditor::Options opts;
        opts.level = audit::CheckLevel::Full;
        opts.failFast = false;
        InvariantAuditor auditor(opts);
        sim.setAuditor(&auditor);
        sim.addReplicaGroup(1, makeSchedulerFactory(cfg));
        int preemptions = 0;
        for (const RequestRecord &rec : sim.run().records())
            preemptions += rec.kvPreemptions;

        EXPECT_GT(preemptions, 0) << policyName(policy);
        EXPECT_TRUE(auditor.clean())
            << policyName(policy) << ": " << describe(auditor);
    }
}

TEST(AuditE2EDeathTest, PromptLargerThanKvCacheIsFatal)
{
    // The KvPressureRunsClean trace on a replica cut to 6000 KV
    // tokens: 17 of its prompts (up to 8192 tokens) cannot fit even
    // alone. Without the admission check the run preempts and resets
    // each of them forever; with it the first one stops the run.
    Scenario sc;
    ServingConfig &cfg = sc.serving;
    cfg.policy = Policy::SarathiFcfs;
    std::int64_t spare = cfg.hw.kvCapacityTokens() - 6000;
    cfg.hw.gpu.memCapacity -=
        static_cast<double>(spare) *
        static_cast<double>(cfg.hw.model.kvBytesPerToken());
    ASSERT_EQ(cfg.hw.kvCapacityTokens(), 6000);
    Trace trace = smallTrace(41);
    EXPECT_DEATH(runScenario(sc, trace),
                 "request 0 has a 8192-token prompt but the replica's "
                 "KV cache holds 6000 tokens");
}

TEST(AuditE2E, PrefixCacheRunsClean)
{
    // The full cached-prefill stack — radix tree, COW tails, LRU
    // eviction, dedup at insert — audited every iteration at full
    // level, including the tree-vs-block-table agreement check.
    Trace trace = sharedPrefixTrace(19);
    for (Policy policy : {Policy::QoServe, Policy::SarathiFcfs}) {
        ServingConfig cfg;
        cfg.policy = policy;
        cfg.useForestPredictor = false;
        cfg.prefixCache.enabled = true;
        cfg.prefixCache.capacityFrac = 0.3;
        expectCleanRun(cfg, trace,
                       std::string("prefix-cache ") + policyName(policy));
    }
}

TEST(AuditE2E, CacheAffinityClusterRunsClean)
{
    ServingConfig cfg;
    cfg.policy = Policy::QoServe;
    cfg.numReplicas = 2;
    cfg.useForestPredictor = false;
    cfg.prefixCache.enabled = true;
    cfg.cacheAffinityRouting = true;
    expectCleanRun(cfg, sharedPrefixTrace(29), "cache-affinity cluster");
}

TEST(AuditE2E, CrashDuringCachedPrefillRunsClean)
{
    // Crashes while the prefix cache is hot: the crash releases every
    // shared block (audited by onReplicaCrash), the tree is dropped,
    // and re-dispatched requests re-resolve their prefix against the
    // surviving replica's cache. The run must stay clean end to end.
    Trace trace = sharedPrefixTrace(41);
    ServingConfig cfg;
    cfg.policy = Policy::QoServe;
    cfg.useForestPredictor = false;
    cfg.prefixCache.enabled = true;
    auto predictor = makePredictor(cfg);
    ClusterSim::Config ccfg;
    ccfg.replica.hw = cfg.hw;
    ccfg.replica.perfParams = cfg.perfParams;
    ccfg.replica.prefixCache = cfg.prefixCache;
    ccfg.predictor = predictor.get();

    ClusterSim sim(ccfg, trace);
    InvariantAuditor::Options opts;
    opts.level = audit::CheckLevel::Full;
    opts.failFast = false;
    InvariantAuditor auditor(opts);
    sim.setAuditor(&auditor);
    sim.addReplicaGroup(2, makeSchedulerFactory(cfg));

    FaultConfig fc;
    fc.crashMtbf = 8.0;
    fc.crashMttr = 3.0;
    FaultInjector injector(fc, DomainConfig{}, sim);
    sim.run();

    ASSERT_GT(injector.stats().crashes, 0u);
    EXPECT_TRUE(auditor.clean()) << describe(auditor);

    // The caches were exercised: some crashed replica dropped a tree
    // and lookups kept happening afterwards.
    std::int64_t lookups = 0;
    std::int64_t drops = 0;
    for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
        lookups += sim.replica(i).prefixCache().stats().lookups;
        drops += sim.replica(i).prefixCache().stats().treeDrops;
    }
    EXPECT_GT(lookups, 0);
    EXPECT_GT(drops, 0);
}

TEST(AuditE2E, AutoAuditorInstalledWhenChecksCompiledIn)
{
    ServingConfig cfg;
    cfg.useForestPredictor = false;
    auto predictor = makePredictor(cfg);
    ClusterSim::Config ccfg;
    ccfg.replica.hw = cfg.hw;
    ccfg.predictor = predictor.get();
    ClusterSim sim(ccfg, smallTrace(3));
    if (audit::checksEnabled()) {
        ASSERT_NE(sim.auditor(), nullptr);
        EXPECT_EQ(sim.auditor()->level(), audit::kCompiledLevel);
        sim.addReplicaGroup(1, makeSchedulerFactory(cfg));
        sim.run();
        // failFast auditing: surviving run() means zero violations.
        EXPECT_TRUE(sim.auditor()->clean());
        EXPECT_GT(sim.auditor()->iterationsAudited(), 0u);
    } else {
        EXPECT_EQ(sim.auditor(), nullptr);
    }
}

} // namespace
} // namespace qoserve
