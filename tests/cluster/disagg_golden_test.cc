/**
 * @file
 * The disaggregated pipeline pinned byte for byte: its records digest
 * untraced and traced, and a clean full-level audit of both pools.
 * It shares the golden label with the artefact digests, so every
 * build that checks those checks this one too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "app/serving_system.hh"
#include "audit/invariant_auditor.hh"
#include "cluster/disagg.hh"
#include "metrics/report_io.hh"
#include "obs/trace_sink.hh"

namespace qoserve {
namespace {

/** 64-bit FNV-1a of @p bytes, as hex. */
std::string
fnv1aHex(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
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
 * The pinned pipeline: a QoServe prefill pool of three replicas on
 * the forest predictor feeding one decode replica (replica 3).
 */
class PinnedPipeline
{
  public:
    static constexpr int kPrefillReplicas = 3;

    PinnedPipeline()
        : sc_([] {
              ServingConfig sc;
              sc.policy = Policy::QoServe;
              return sc;
          }()),
          predictor_(makePredictor(sc_)),
          trace_(TraceBuilder()
                     .dataset(sharegpt())
                     .seed(5)
                     .build(PoissonArrivals(4.0), 120.0))
    {
    }

    /**
     * Run under @p policy, letting @p attach hook observers onto the
     * cluster first, and return the records digest.
     */
    std::string
    run(DecodePolicy policy,
        const std::function<void(ClusterSim &)> &attach = {}) const
    {
        DisaggCluster::Config cfg;
        cfg.replica.hw = llama3_8b_a100_tp1();
        cfg.numPrefillReplicas = kPrefillReplicas;
        cfg.numDecodeReplicas = 1;
        cfg.prefillFactory = makeSchedulerFactory(sc_);
        cfg.predictor = predictor_.get();
        cfg.decodePolicy = policy;
        DisaggCluster sim(cfg, trace_);
        if (attach)
            attach(sim.cluster());
        std::ostringstream csv;
        writeRecordsCsv(sim.run(), csv);
        return fnv1aHex(csv.str());
    }

  private:
    ServingConfig sc_;
    std::shared_ptr<const LatencyPredictor> predictor_;
    Trace trace_;
};

TEST(DisaggCluster, RecordsMatchGoldenDigest)
{
    // A change that alters these records on purpose updates the
    // digests and says why. Tracing must not perturb them, and the
    // decode replica must show up on the trace as an engine.
    const PinnedPipeline pipeline;
    const struct
    {
        DecodePolicy policy;
        const char *digest;
    } cases[] = {
        {DecodePolicy::StrictestTbtCap, "c1b82e32c93b6565"},
        {DecodePolicy::DeadlineAware, "0651a829dee79f79"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(pipeline.run(c.policy), c.digest);

        TraceSink sink;
        EXPECT_EQ(pipeline.run(c.policy,
                               [&](ClusterSim &sim) {
                                   sim.setTraceSink(&sink);
                               }),
                  c.digest);
        std::size_t starts = 0;
        std::size_t ends = 0;
        for (const TraceEvent &ev : sink.events()) {
            if (ev.replica != PinnedPipeline::kPrefillReplicas)
                continue;
            starts += ev.kind == TraceEventKind::IterStart;
            ends += ev.kind == TraceEventKind::IterEnd;
        }
        EXPECT_GT(starts, 0u);
        EXPECT_EQ(starts, ends);
    }
}

TEST(DisaggCluster, DecodePoolPassesFullAudit)
{
    // Every check the auditor runs on a replica — KV agreement and
    // orphan slots, decode lanes, records — holds on the decode pool.
    const PinnedPipeline pipeline;
    for (DecodePolicy policy :
         {DecodePolicy::StrictestTbtCap, DecodePolicy::DeadlineAware}) {
        InvariantAuditor::Options opts;
        opts.level = audit::CheckLevel::Full;
        opts.failFast = false;
        InvariantAuditor auditor(opts);
        pipeline.run(policy, [&](ClusterSim &sim) {
            sim.setAuditor(&auditor);
        });
        EXPECT_GT(auditor.iterationsAudited(), 0u);
        EXPECT_TRUE(auditor.clean()) << describe(auditor);
    }
}

} // namespace
} // namespace qoserve
