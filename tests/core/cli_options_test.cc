/**
 * @file
 * Tests for the qoserve_sim option parser.
 */

#include "app/cli_options.hh"

#include <gtest/gtest.h>

namespace qoserve {
namespace {

TEST(CliOptions, DefaultsAreSane)
{
    CliOptions opts = parseCliOptions({});
    EXPECT_EQ(opts.serving.policy, Policy::QoServe);
    EXPECT_EQ(opts.serving.numReplicas, 1);
    EXPECT_EQ(opts.dataset.name, "Az-Code");
    EXPECT_DOUBLE_EQ(opts.qps, 3.0);
    EXPECT_DOUBLE_EQ(opts.duration, 600.0);
    EXPECT_FALSE(opts.helpRequested);
    EXPECT_FALSE(opts.traceIn.has_value());
}

TEST(CliOptions, ParsesFullInvocation)
{
    CliOptions opts = parseCliOptions({
        "--policy", "edf", "--dataset", "sharegpt", "--tiers", "strict",
        "--mix", "0.5,0.3,0.2", "--low-priority", "0.2", "--qps", "4.5",
        "--duration", "1200", "--seed", "99", "--replicas", "3",
        "--lb", "jsq", "--chunk", "512", "--alpha", "2.5",
        "--adaptive-alpha", "--max-chunk", "4096", "--oracle-predictor",
        "--trace-out", "/tmp/t.csv", "--records-out", "/tmp/r.csv",
        "--summary-out", "/tmp/s.csv",
    });

    EXPECT_EQ(opts.serving.policy, Policy::SarathiEdf);
    EXPECT_EQ(opts.dataset.name, "ShareGPT");
    EXPECT_TRUE(opts.tiers[0].interactive);
    EXPECT_DOUBLE_EQ(opts.tiers[0].ttftSlo, 3.0);
    EXPECT_EQ(opts.tierMix, (std::vector<double>{0.5, 0.3, 0.2}));
    EXPECT_DOUBLE_EQ(opts.lowPriorityFraction, 0.2);
    EXPECT_DOUBLE_EQ(opts.qps, 4.5);
    EXPECT_DOUBLE_EQ(opts.duration, 1200.0);
    EXPECT_EQ(opts.seed, 99u);
    EXPECT_EQ(opts.serving.numReplicas, 3);
    EXPECT_EQ(opts.loadBalance, LoadBalancePolicy::ShortestQueue);
    EXPECT_EQ(opts.serving.base.fixedChunkTokens, 512);
    EXPECT_DOUBLE_EQ(opts.serving.qoserve.alphaMsPerToken, 2.5);
    EXPECT_TRUE(opts.serving.qoserve.adaptiveAlpha);
    EXPECT_EQ(opts.serving.qoserve.maxChunkTokens, 4096);
    EXPECT_FALSE(opts.serving.useForestPredictor);
    EXPECT_EQ(opts.traceOut, "/tmp/t.csv");
    EXPECT_EQ(opts.recordsOut, "/tmp/r.csv");
    EXPECT_EQ(opts.summaryOut, "/tmp/s.csv");
}

TEST(CliOptions, PrefixCacheFlagsParse)
{
    CliOptions opts = parseCliOptions({
        "--prefix-cache", "--cache-capacity-frac", "0.4",
        "--cache-affinity", "--share-ratio", "0.6", "--prefix-pools",
        "16", "--multi-turn", "0.3",
    });
    EXPECT_TRUE(opts.serving.prefixCache.enabled);
    EXPECT_DOUBLE_EQ(opts.serving.prefixCache.capacityFrac, 0.4);
    EXPECT_TRUE(opts.serving.cacheAffinityRouting);
    EXPECT_DOUBLE_EQ(opts.sharedPrefix.shareRatio, 0.6);
    EXPECT_EQ(opts.sharedPrefix.numPools, 16);
    EXPECT_DOUBLE_EQ(opts.sharedPrefix.multiTurnFrac, 0.3);
}

TEST(CliOptions, PrefixCacheDefaultsOff)
{
    CliOptions opts = parseCliOptions({});
    EXPECT_FALSE(opts.serving.prefixCache.enabled);
    EXPECT_FALSE(opts.serving.cacheAffinityRouting);
    EXPECT_DOUBLE_EQ(opts.sharedPrefix.shareRatio, 0.0);
    EXPECT_NE(cliUsage().find("--prefix-cache"), std::string::npos);
    EXPECT_NE(cliUsage().find("--share-ratio"), std::string::npos);
}

TEST(CliOptions, CacheAffinityRequiresPrefixCache)
{
    EXPECT_DEATH(parseCliOptions({"--cache-affinity"}),
                 "requires --prefix-cache");
}

TEST(CliOptions, PrefixCacheRangeValidation)
{
    EXPECT_DEATH(
        parseCliOptions({"--prefix-cache", "--cache-capacity-frac", "0"}),
        "capacity fraction");
    EXPECT_DEATH(
        parseCliOptions(
            {"--prefix-cache", "--cache-capacity-frac", "1.5"}),
        "capacity fraction");
    EXPECT_DEATH(parseCliOptions({"--share-ratio", "2"}), "share ratio");
    EXPECT_DEATH(
        parseCliOptions({"--share-ratio", "0.5", "--prefix-pools", "0"}),
        "pool count");
    EXPECT_DEATH(
        parseCliOptions({"--share-ratio", "0.5", "--multi-turn", "-1"}),
        "multi-turn fraction");
}

TEST(CliOptions, ObservabilityFlagsParse)
{
    CliOptions opts = parseCliOptions({
        "--trace", "/tmp/trace.json", "--trace-csv", "/tmp/ev.csv",
        "--metrics-out", "/tmp/m.csv", "--metrics-interval", "2.5",
    });
    EXPECT_EQ(opts.traceJsonOut, "/tmp/trace.json");
    EXPECT_EQ(opts.traceEventsOut, "/tmp/ev.csv");
    EXPECT_EQ(opts.metricsOut, "/tmp/m.csv");
    EXPECT_DOUBLE_EQ(opts.metricsInterval, 2.5);
}

TEST(CliOptions, ObservabilityDefaultsOff)
{
    CliOptions opts = parseCliOptions({});
    EXPECT_FALSE(opts.traceJsonOut.has_value());
    EXPECT_FALSE(opts.traceEventsOut.has_value());
    EXPECT_FALSE(opts.metricsOut.has_value());
    EXPECT_DOUBLE_EQ(opts.metricsInterval, 5.0);
}

TEST(CliOptions, MetricsIntervalMustBePositive)
{
    EXPECT_DEATH(parseCliOptions({"--metrics-interval", "0"}),
                 "must be positive");
    EXPECT_DEATH(parseCliOptions({"--metrics-interval", "-1"}),
                 "must be positive");
}

TEST(CliOptions, MetricsIntervalRequiresMetricsOut)
{
    // The cadence configures the series --metrics-out enables;
    // setting it alone is a silent no-op the parser now rejects.
    EXPECT_DEATH(parseCliOptions({"--metrics-interval", "2"}),
                 "requires --metrics-out");
    // With the enabler it parses fine.
    CliOptions opts = parseCliOptions(
        {"--metrics-out", "/tmp/m.csv", "--metrics-interval", "2"});
    EXPECT_DOUBLE_EQ(opts.metricsInterval, 2.0);
}

TEST(CliOptions, SketchFlagsParse)
{
    CliOptions opts = parseCliOptions(
        {"--sketch-out", "/tmp/sk.csv", "--sketch-alpha", "0.02"});
    EXPECT_EQ(opts.sketchOut, "/tmp/sk.csv");
    EXPECT_DOUBLE_EQ(opts.sketchAlpha, 0.02);
    EXPECT_FALSE(parseCliOptions({}).sketchOut.has_value());
}

TEST(CliOptions, SketchAlphaValidation)
{
    EXPECT_DEATH(parseCliOptions(
                     {"--sketch-out", "/tmp/sk.csv", "--sketch-alpha",
                      "0"}),
                 "in \\(0, 1\\)");
    EXPECT_DEATH(parseCliOptions(
                     {"--sketch-out", "/tmp/sk.csv", "--sketch-alpha",
                      "1"}),
                 "in \\(0, 1\\)");
    EXPECT_DEATH(parseCliOptions({"--sketch-alpha", "0.02"}),
                 "requires --sketch-out");
}

TEST(CliOptions, SloMonitorFlagsParse)
{
    CliOptions opts = parseCliOptions({
        "--slo-monitor", "--slo-alert-budget", "0.05",
        "--slo-alert-burn", "2", "--slo-alert-short", "60",
        "--slo-alert-long", "600", "--slo-alert-interval", "5",
        "--slo-alerts-out", "/tmp/alerts.csv",
    });
    EXPECT_TRUE(opts.sloMonitor);
    EXPECT_DOUBLE_EQ(opts.sloAlert.budget, 0.05);
    EXPECT_DOUBLE_EQ(opts.sloAlert.burn, 2.0);
    EXPECT_DOUBLE_EQ(opts.sloAlert.shortWindow, 60.0);
    EXPECT_DOUBLE_EQ(opts.sloAlert.longWindow, 600.0);
    EXPECT_DOUBLE_EQ(opts.sloAlert.interval, 5.0);
    EXPECT_EQ(opts.sloAlertsOut, "/tmp/alerts.csv");
    EXPECT_FALSE(parseCliOptions({}).sloMonitor);
}

TEST(CliOptions, SloAlertFlagsRequireTheMonitor)
{
    EXPECT_DEATH(parseCliOptions({"--slo-alert-burn", "2"}),
                 "require --slo-monitor");
    EXPECT_DEATH(parseCliOptions({"--slo-alert-budget", "0.05"}),
                 "require --slo-monitor");
    EXPECT_DEATH(parseCliOptions({"--slo-alerts-out", "/tmp/a.csv"}),
                 "requires --slo-monitor");
}

TEST(CliOptions, SloAlertPolicyValidation)
{
    EXPECT_DEATH(
        parseCliOptions({"--slo-monitor", "--slo-alert-budget", "0"}),
        "--slo-alert-budget");
    EXPECT_DEATH(
        parseCliOptions({"--slo-monitor", "--slo-alert-budget", "2"}),
        "--slo-alert-budget");
    EXPECT_DEATH(
        parseCliOptions({"--slo-monitor", "--slo-alert-burn", "-3"}),
        "--slo-alert-burn");
    EXPECT_DEATH(
        parseCliOptions({"--slo-monitor", "--slo-alert-short", "0"}),
        "--slo-alert-short");
    EXPECT_DEATH(
        parseCliOptions(
            {"--slo-monitor", "--slo-alert-interval", "0"}),
        "--slo-alert-interval");
    // Window ordering: a short window wider than the long one makes
    // the both-windows rule vacuous.
    EXPECT_DEATH(parseCliOptions({"--slo-monitor", "--slo-alert-short",
                                  "600", "--slo-alert-long", "60"}),
                 "must not exceed --slo-alert-long");
    EXPECT_DEATH(
        parseCliOptions({"--slo-monitor", "--slo-alert-burn", "abc"}),
        "");
}

TEST(CliOptions, HelpFlag)
{
    EXPECT_TRUE(parseCliOptions({"--help"}).helpRequested);
    EXPECT_TRUE(parseCliOptions({"-h"}).helpRequested);
    EXPECT_NE(cliUsage().find("--policy"), std::string::npos);
}

TEST(CliOptions, PolicyNames)
{
    auto policy = [](const char *name) {
        return parseCliOptions({"--policy", name}).serving.policy;
    };
    EXPECT_EQ(policy("qoserve"), Policy::QoServe);
    EXPECT_EQ(policy("fcfs"), Policy::SarathiFcfs);
    EXPECT_EQ(policy("edf"), Policy::SarathiEdf);
    EXPECT_EQ(policy("sjf"), Policy::SarathiSjf);
    EXPECT_EQ(policy("srpf"), Policy::SarathiSrpf);
    EXPECT_EQ(policy("medha"), Policy::Medha);
    EXPECT_EQ(policy("dp"), Policy::SlosServeDp);
    EXPECT_DEATH(policy("vllm"), "unknown --policy: vllm");
}

TEST(CliOptions, HwPresets)
{
    auto tp = [](const char *name) {
        return parseCliOptions({"--hw", name}).serving.hw.tpDegree;
    };
    EXPECT_EQ(tp("llama3-8b-a100-tp1"), 1);
    EXPECT_EQ(tp("qwen-7b-a100-tp2"), 2);
    EXPECT_EQ(tp("llama3-70b-h100-tp4"), 4);
    EXPECT_DEATH(tp("tpu"), "unknown --hw: tpu");
}

TEST(CliOptions, UnknownFlagIsFatal)
{
    EXPECT_DEATH(parseCliOptions({"--frobnicate"}), "unknown flag");
}

TEST(CliOptions, MissingValueIsFatal)
{
    EXPECT_DEATH(parseCliOptions({"--qps"}), "requires a value");
}

TEST(CliOptions, MalformedNumberIsFatal)
{
    EXPECT_DEATH(parseCliOptions({"--qps", "fast"}), "not a number");
    EXPECT_DEATH(parseCliOptions({"--seed", "1.5"}),
                 "--seed: not an unsigned integer: '1.5'");
    // An unsigned flag must not wrap "-1" to 2^64 - 1.
    EXPECT_DEATH(parseCliOptions({"--seed", "-1"}),
                 "--seed: not an unsigned integer: '-1'");
    // Integer flags are range-checked ints: 2^32 + 1 must not wrap to
    // one replica, and a tier index must not truncate 1.7 to 1.
    EXPECT_DEATH(parseCliOptions({"--replicas", "4294967297"}),
                 "--replicas: not an integer: '4294967297'");
    EXPECT_DEATH(parseCliOptions({"--brownout-shed-tier", "1.7"}),
                 "--brownout-shed-tier: not an integer: '1.7'");
    EXPECT_DEATH(parseCliOptions({"--replicas", "-1"}),
                 "--replicas: must not be negative: '-1'");
}

TEST(CliOptions, RangeValidation)
{
    EXPECT_DEATH(parseCliOptions({"--qps", "0"}), "must be positive");
    EXPECT_DEATH(parseCliOptions({"--duration", "-5"}),
                 "must be positive");
    EXPECT_DEATH(parseCliOptions({"--replicas", "0"}), "at least 1");
}

TEST(CliOptions, SchedulerKnobRangesAreUserErrors)
{
    // Without these rules each value would reach a library assertion
    // (a panic) instead of a fatal error naming the flag.
    EXPECT_DEATH(parseCliOptions({"--low-priority", "1.5"}),
                 "--low-priority must be in");
    EXPECT_DEATH(parseCliOptions({"--low-priority", "-0.1"}),
                 "--low-priority");
    EXPECT_DEATH(parseCliOptions({"--alpha", "-1"}),
                 "--alpha must be non-negative");
    EXPECT_DEATH(parseCliOptions({"--max-chunk", "32"}),
                 "--max-chunk must be at least the chunk floor \\(192 "
                 "tokens\\), got 32");
    // Below the floor but a whole number of steps: the floor would
    // lift every chunk past the cap.
    EXPECT_DEATH(parseCliOptions({"--max-chunk", "128"}),
                 "--max-chunk must be at least the chunk floor \\(192 "
                 "tokens\\), got 128");
    EXPECT_EQ(parseCliOptions({"--max-chunk", "192"})
                  .serving.qoserve.maxChunkTokens,
              192);
    EXPECT_DEATH(parseCliOptions({"--chunk", "0"}),
                 "--chunk must be positive");
}

TEST(CliOptions, ChaosFlagsParse)
{
    CliOptions opts = parseCliOptions({
        "--replicas", "4", "--zones", "2", "--zone-mtbf", "60",
        "--zone-mttr", "15", "--partition-mtbf", "80",
        "--partition-mttr", "10", "--partition-frac", "0.5",
        "--domain-seed", "9", "--breaker-threshold", "3",
        "--breaker-cooldown", "0.5", "--deadline-cancel", "--brownout",
        "--brownout-enter", "2000", "--brownout-exit", "500",
        "--brownout-interval", "2", "--brownout-cap", "64",
        "--brownout-shed-tier", "2",
    });

    EXPECT_EQ(opts.domains.zones, 2);
    EXPECT_DOUBLE_EQ(opts.domains.zoneMtbf, 60.0);
    EXPECT_DOUBLE_EQ(opts.domains.zoneMttr, 15.0);
    EXPECT_DOUBLE_EQ(opts.domains.partitionMtbf, 80.0);
    EXPECT_DOUBLE_EQ(opts.domains.partitionMttr, 10.0);
    EXPECT_DOUBLE_EQ(opts.domains.partitionFrac, 0.5);
    EXPECT_EQ(opts.domains.seed, 9u);
    EXPECT_TRUE(opts.domains.enabled());
    EXPECT_EQ(opts.breaker.failureThreshold, 3);
    EXPECT_DOUBLE_EQ(opts.breaker.cooldown, 0.5);
    EXPECT_TRUE(opts.deadlineCancel);
    EXPECT_TRUE(opts.brownout.enabled);
    EXPECT_DOUBLE_EQ(opts.brownout.enterBacklog, 2000.0);
    EXPECT_DOUBLE_EQ(opts.brownout.exitBacklog, 500.0);
    EXPECT_DOUBLE_EQ(opts.brownout.interval, 2.0);
    EXPECT_EQ(opts.brownout.capTokens, 64);
    EXPECT_EQ(opts.brownout.shedTier, 2);
}

TEST(CliOptions, ChaosDefaultsOff)
{
    CliOptions opts = parseCliOptions({});
    EXPECT_FALSE(opts.domains.enabled());
    EXPECT_FALSE(opts.breaker.enabled());
    EXPECT_FALSE(opts.deadlineCancel);
    EXPECT_FALSE(opts.brownout.enabled);
}

TEST(CliOptions, DegenerateFaultCombosAreFatal)
{
    // A zero repair time with crashes enabled would leave replicas
    // down forever; the parser rejects it instead of wedging the run.
    EXPECT_DEATH(
        parseCliOptions({"--fault-mtbf", "60", "--fault-mttr", "0"}),
        "--fault-mttr must be positive");
    EXPECT_DEATH(parseCliOptions({"--fault-mtbf", "-1"}),
                 "non-negative");
    EXPECT_DEATH(parseCliOptions({"--zone-mtbf", "60"}),
                 "requires --zones");
    EXPECT_DEATH(
        parseCliOptions({"--replicas", "2", "--zones", "4"}),
        "--zones");
    EXPECT_DEATH(parseCliOptions({"--replicas", "4", "--zones", "2",
                                  "--zone-mtbf", "60", "--zone-mttr",
                                  "0"}),
                 "--zone-mttr must be positive");
    EXPECT_DEATH(parseCliOptions(
                     {"--partition-mtbf", "50", "--partition-mttr", "0"}),
                 "--partition-mttr must be positive");
    EXPECT_DEATH(parseCliOptions({"--partition-mtbf", "50",
                                  "--partition-frac", "1.5"}),
                 "--partition-frac");
    EXPECT_DEATH(parseCliOptions({"--breaker-threshold", "2",
                                  "--breaker-cooldown", "0"}),
                 "--breaker-cooldown must be positive");
    EXPECT_DEATH(parseCliOptions({"--brownout", "--brownout-enter",
                                  "100", "--brownout-exit", "200"}),
                 "--brownout-exit");
    EXPECT_DEATH(
        parseCliOptions({"--brownout", "--brownout-shed-tier", "9"}),
        "--brownout-shed-tier");
    EXPECT_DEATH(
        parseCliOptions({"--brownout", "--brownout-shed-tier", "-5"}),
        "--brownout-shed-tier must be at least -1");
}

} // namespace
} // namespace qoserve
